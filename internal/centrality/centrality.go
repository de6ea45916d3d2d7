// Package centrality implements the vertex-centrality metrics GraphHD can
// derive vertex identifiers from. The paper proposes PageRank (package
// pagerank); this package adds degree, eigenvector and closeness
// centrality so the identifier choice can be ablated (experiment A7 in
// DESIGN.md) — any metric that orders vertices consistently across graphs
// fits the encoder.
package centrality

import (
	"math"

	"graphhd/internal/graph"
	"graphhd/internal/pagerank"
)

// Metric selects a vertex-centrality measure.
type Metric int

// Supported metrics.
const (
	// PageRank is the paper's choice (damping 0.85, fixed iterations).
	PageRank Metric = iota
	// Degree is normalized vertex degree, the cheapest possible metric.
	Degree
	// Eigenvector is the principal-eigenvector score of the adjacency
	// matrix (power iteration).
	Eigenvector
	// Closeness is BFS-based closeness with the Wasserman-Faust
	// correction for disconnected graphs.
	Closeness
)

// String returns the metric name.
func (m Metric) String() string {
	switch m {
	case PageRank:
		return "pagerank"
	case Degree:
		return "degree"
	case Eigenvector:
		return "eigenvector"
	case Closeness:
		return "closeness"
	default:
		return "unknown"
	}
}

// Options configures centrality computation. Iterations and Damping apply
// to the iterative metrics (PageRank, Eigenvector); zero values select the
// paper defaults.
type Options struct {
	Iterations int
	Damping    float64
}

// Scratch holds the reusable buffers of ScoresInto and RanksInto: the
// PageRank scratch for the PageRank delegation and the rank sort of
// every metric, separate score buffers for the other metrics, and the BFS
// state closeness needs. The zero value is ready to use; buffers grow to
// the largest graph seen and are then reused. A Scratch is not safe for
// concurrent use — each encoding goroutine owns its own.
type Scratch struct {
	pr           pagerank.Scratch
	scores, next []float64
	dist         []int
	queue        []int32
}

// ensure grows the non-PageRank buffers to cover n vertices.
func (s *Scratch) ensure(n int) {
	if cap(s.scores) < n {
		s.scores = make([]float64, n)
	}
	if cap(s.next) < n {
		s.next = make([]float64, n)
	}
}

// Scores returns the centrality score of every vertex under the given
// metric. Scores are comparable within one graph; only their ordering is
// used by the encoder.
func Scores(g *graph.Graph, metric Metric, opts Options) []float64 {
	switch metric {
	case Degree:
		return degreeScoresInto(g, make([]float64, g.NumVertices()))
	case Eigenvector:
		return eigenvectorScoresInto(g, opts, make([]float64, g.NumVertices()), make([]float64, g.NumVertices()))
	case Closeness:
		var s Scratch
		return closenessScoresInto(g, make([]float64, g.NumVertices()), &s)
	default:
		return pagerank.Scores(g, pagerank.Options{Iterations: opts.Iterations, Damping: opts.Damping})
	}
}

// ScoresInto is Scores writing into s's reusable buffers. The returned
// slice is owned by s and valid until the next ScoresInto or RanksInto
// call on it. Out-of-range metric values fall back to PageRank, the same
// rule as Scores.
func ScoresInto(g *graph.Graph, metric Metric, opts Options, s *Scratch) []float64 {
	n := g.NumVertices()
	switch metric {
	case Degree:
		s.ensure(n)
		return degreeScoresInto(g, s.scores[:n])
	case Eigenvector:
		s.ensure(n)
		return eigenvectorScoresInto(g, opts, s.scores[:n], s.next[:n])
	case Closeness:
		s.ensure(n)
		return closenessScoresInto(g, s.scores[:n], s)
	default:
		return pagerank.ScoresInto(g, pagerank.Options{Iterations: opts.Iterations, Damping: opts.Damping}, &s.pr)
	}
}

// Ranks returns each vertex's centrality rank under the given metric:
// 0 for the most central vertex. Ties break deterministically by score
// descending, then degree descending, then vertex id ascending — the same
// rule as pagerank.Ranks.
func Ranks(g *graph.Graph, metric Metric, opts Options) []int {
	if metric == PageRank {
		return pagerank.Ranks(g, pagerank.Options{Iterations: opts.Iterations, Damping: opts.Damping})
	}
	return RanksFromScores(g, Scores(g, metric, opts))
}

// RanksInto is Ranks writing into dst, with every intermediate buffer
// drawn from s. dst is grown when its capacity is insufficient, so callers
// that reuse the returned slice reach a steady state with zero heap
// allocations per graph. Out-of-range metric values fall back to PageRank,
// the same rule as Ranks.
func RanksInto(g *graph.Graph, metric Metric, opts Options, dst []int, s *Scratch) []int {
	switch metric {
	case Degree, Eigenvector, Closeness:
		return s.pr.RanksFromScoresInto(g, ScoresInto(g, metric, opts, s), dst)
	default:
		return pagerank.RanksInto(g, pagerank.Options{Iterations: opts.Iterations, Damping: opts.Damping}, dst, &s.pr)
	}
}

// RanksFromScores converts a score vector to deterministic ranks with the
// shared tie-break rule (pagerank.Scratch.RanksFromScoresInto).
func RanksFromScores(g *graph.Graph, scores []float64) []int {
	var s pagerank.Scratch
	return s.RanksFromScoresInto(g, scores, nil)
}

func degreeScoresInto(g *graph.Graph, s []float64) []float64 {
	n := g.NumVertices()
	s = s[:n]
	for v := range s {
		s[v] = 0
	}
	if n < 2 {
		return s
	}
	inv := 1 / float64(n-1)
	for v := 0; v < n; v++ {
		s[v] = float64(g.Degree(v)) * inv
	}
	return s
}

// eigenvectorScoresInto runs power iteration on the shifted adjacency
// matrix A + I with L2 normalization, ping-ponging between the caller's
// cur and next buffers (the returned slice is one of the two). The shift
// leaves the principal eigenvector (and therefore the ranking) unchanged
// while preventing the sign oscillation power iteration suffers on
// bipartite graphs, whose extreme eigenvalues come in ±λ pairs.
func eigenvectorScoresInto(g *graph.Graph, opts Options, cur, next []float64) []float64 {
	n := g.NumVertices()
	cur, next = cur[:n], next[:n]
	if g.NumEdges() == 0 {
		// No adjacency structure: define all scores as zero rather than
		// letting the +I shift return a meaningless uniform vector.
		for v := range cur {
			cur[v] = 0
		}
		return cur
	}
	iters := opts.Iterations
	if iters == 0 {
		iters = 50
	}
	for v := range cur {
		cur[v] = 1
	}
	for it := 0; it < iters; it++ {
		copy(next, cur) // the +I term
		for v := 0; v < n; v++ {
			cv := cur[v]
			if cv == 0 {
				continue
			}
			for _, w := range g.Neighbors(v) {
				next[w] += cv
			}
		}
		norm := 0.0
		for _, x := range next {
			norm += x * x
		}
		if norm == 0 {
			// Edgeless graph: all scores zero.
			return next
		}
		norm = math.Sqrt(norm)
		for v := range next {
			next[v] /= norm
		}
		cur, next = next, cur
	}
	return cur
}

// closenessScoresInto computes Wasserman-Faust closeness into out: for
// each vertex v with r(v) reachable vertices at total BFS distance s(v),
// C(v) = ((r-1)/(n-1)) * ((r-1)/s). Isolated vertices score 0. The BFS
// distance array and queue live in s.
func closenessScoresInto(g *graph.Graph, out []float64, s *Scratch) []float64 {
	n := g.NumVertices()
	out = out[:n]
	for v := range out {
		out[v] = 0
	}
	if n < 2 {
		return out
	}
	if cap(s.dist) < n {
		s.dist = make([]int, n)
	}
	if cap(s.queue) < n {
		s.queue = make([]int32, 0, n)
	}
	dist := s.dist[:n]
	queue := s.queue[:0]
	for src := 0; src < n; src++ {
		for i := range dist {
			dist[i] = -1
		}
		dist[src] = 0
		queue = append(queue[:0], int32(src))
		total, reach := 0, 1
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			for _, w := range g.Neighbors(int(v)) {
				if dist[w] == -1 {
					dist[w] = dist[v] + 1
					total += dist[w]
					reach++
					queue = append(queue, w)
				}
			}
		}
		if total > 0 {
			r := float64(reach - 1)
			out[src] = (r / float64(n-1)) * (r / float64(total))
		}
	}
	return out
}

// AllMetrics lists every supported metric, for sweeps.
func AllMetrics() []Metric {
	return []Metric{PageRank, Degree, Eigenvector, Closeness}
}
