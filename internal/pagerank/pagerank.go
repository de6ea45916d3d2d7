// Package pagerank implements the PageRank centrality metric that GraphHD
// uses to derive topology-based vertex identifiers (Section IV-C of the
// paper). Scores are computed by damped power iteration on the undirected
// graph; the number of iterations is a parameter, fixed to 10 in all paper
// experiments "because the accuracy of GraphHD has then plateaued".
package pagerank

import (
	"math"
	"slices"

	"graphhd/internal/graph"
)

// DefaultDamping is the standard PageRank damping factor from Brin & Page.
const DefaultDamping = 0.85

// DefaultIterations matches the paper's fixed setting of 10 iterations.
const DefaultIterations = 10

// Options configures a PageRank computation. The zero value selects the
// defaults used in the paper.
type Options struct {
	// Damping is the probability of following an edge rather than
	// teleporting; 0 selects DefaultDamping.
	Damping float64
	// Iterations is the number of power-iteration steps; 0 selects
	// DefaultIterations.
	Iterations int
}

func (o Options) withDefaults() Options {
	if o.Damping == 0 {
		o.Damping = DefaultDamping
	}
	if o.Iterations == 0 {
		o.Iterations = DefaultIterations
	}
	return o
}

// Scratch holds the reusable buffers of ScoresInto and RanksInto: the two
// power-iteration score vectors, the degree-derived terms and the
// centrality sort keys. The zero value is ready to use; buffers grow to
// the largest graph seen and are then reused, so steady-state rank
// computation performs no heap allocations. A Scratch is not safe for
// concurrent use — each goroutine owns its own.
type Scratch struct {
	scores, next []float64
	dangling     []int32
	dinv         []float64
	keys         []rankKey
}

// smallGraph is the vertex count up to which RanksFromScoresInto sorts by
// insertion. It is also the least a scratch buffer grows to, so the small
// graphs that make up most datasets settle a fresh scratch on its first
// graph instead of regrowing it at every new largest graph.
const smallGraph = 64

// ensure grows the power-iteration buffers to cover n vertices.
func (s *Scratch) ensure(n int) {
	if cap(s.scores) >= n {
		return
	}
	n = max(n, smallGraph)
	s.scores = make([]float64, n)
	s.next = make([]float64, n)
	s.dangling = make([]int32, n)
	s.dinv = make([]float64, n)
}

// Scores returns the PageRank score of every vertex of g after the
// configured number of power-iteration steps. On an undirected graph each
// edge acts as two directed links. Vertices with no neighbors (dangling
// vertices) distribute their mass uniformly, the standard correction, so
// the scores always sum to 1 (up to floating-point error).
func Scores(g *graph.Graph, opts Options) []float64 {
	var s Scratch
	return ScoresInto(g, opts, &s)
}

// ScoresInto is Scores writing into s's reusable buffers. The returned
// slice is owned by s and valid until the next ScoresInto or RanksInto
// call on it; steady state performs no heap allocations.
func ScoresInto(g *graph.Graph, opts Options, s *Scratch) []float64 {
	opts = opts.withDefaults()
	n := g.NumVertices()
	if n == 0 {
		return nil
	}
	s.ensure(n)
	// Arrange the ping-pong buffers so the final swap leaves the result in
	// s.scores, letting callers hold one stable slice across graphs.
	cur, next := s.scores[:n], s.next[:n]
	if opts.Iterations%2 == 1 {
		cur, next = next, cur
	}
	inv := 1 / float64(n)
	for i := range cur {
		cur[i] = inv
	}
	d := opts.Damping
	// Degrees are fixed across iterations, so hoist everything derived
	// from them out of the power loop: the dangling-vertex list (the
	// common all-connected case then skips the per-iteration mass scan
	// entirely) and the damped inverse degree d/deg(v), which turns the
	// per-vertex division into a multiply. A dangling vertex gets dinv
	// 0; it has no edges, so its share is never read.
	dang := s.dangling[:0]
	dinv := s.dinv[:n]
	for v := 0; v < n; v++ {
		if deg := g.Degree(v); deg == 0 {
			dang = append(dang, int32(v))
			dinv[v] = 0
		} else {
			dinv[v] = d / float64(deg)
		}
	}
	edges := g.Edges()
	for it := 0; it < opts.Iterations; it++ {
		// Teleport mass plus dangling-vertex mass, both uniform.
		dangling := 0.0
		for _, v := range dang {
			dangling += cur[v]
		}
		base := (1-d)*inv + d*dangling*inv
		// cur becomes each vertex's share of its own score in place;
		// next starts from the uniform mass. (The re-slices let the
		// compiler drop the bounds checks.)
		shares, dinv := cur[:len(next)], dinv[:len(next)]
		for v := range next {
			shares[v] *= dinv[v]
			next[v] = base
		}
		// One pass over the edge list, each edge giving each endpoint
		// the other's share. Edges are sorted by (U, V) with U < V, so a
		// vertex hears from its lower neighbours in ascending order (one
		// per earlier U block) and then from its upper ones (its own
		// block): ascending neighbour order, the same order — and so the
		// same float64 sums — as pushing every vertex's share along its
		// sorted adjacency list, with no short variable-length inner
		// loop per vertex.
		for _, e := range edges {
			next[e.V] += shares[e.U]
			next[e.U] += shares[e.V]
		}
		cur, next = next, cur
	}
	return cur
}

// rankKey is one vertex's centrality sort key under the shared
// deterministic ordering — score descending, then degree descending, then
// vertex id ascending — with the degree and id packed into one word:
// (MaxUint32 - degree) << 32 | id, which sorts ascending. The id clause
// makes the order total, so every correct sort produces the same
// permutation, and the id comes back out of the low half.
type rankKey struct {
	score float64
	tie   uint64
}

func (a rankKey) less(b rankKey) bool {
	return a.score > b.score || a.score == b.score && a.tie < b.tie
}

func compareRankKeys(a, b rankKey) int {
	switch {
	case a.less(b):
		return -1
	case b.less(a):
		return 1
	}
	return 0
}

// Ranks returns, for each vertex, its centrality rank: 0 for the vertex
// with the highest PageRank score, 1 for the next, and so on. This rank is
// the vertex identifier GraphHD feeds to the item memory.
//
// Scores tie frequently on symmetric graphs, so the ordering is made
// deterministic: score descending, then degree descending, then vertex id
// ascending. Any deterministic tie-break preserves GraphHD's semantics
// (tied vertices are structurally interchangeable); this one is stable
// across runs and platforms.
func Ranks(g *graph.Graph, opts Options) []int {
	var s Scratch
	return RanksInto(g, opts, make([]int, g.NumVertices()), &s)
}

// RanksInto is Ranks writing into dst, using s for every intermediate
// buffer (scores and sort keys). dst is grown when its capacity is
// insufficient, so callers that reuse the returned slice reach a steady
// state with zero heap allocations per graph.
func RanksInto(g *graph.Graph, opts Options, dst []int, s *Scratch) []int {
	return s.RanksFromScoresInto(g, ScoresInto(g, opts, s), dst)
}

// RanksFromScoresInto writes each vertex's rank under scores — one score
// per vertex of g, of any centrality metric — into dst with the shared
// tie-break rule (score descending, degree descending, id ascending), and
// returns dst, grown when its capacity is insufficient. It builds one key
// per vertex, reading each degree once, and sorts the keys in s's buffer:
// by insertion up to 64 vertices (benchmark graphs are mostly far
// smaller), else by slices.SortFunc. Steady state allocates nothing.
func (s *Scratch) RanksFromScoresInto(g *graph.Graph, scores []float64, dst []int) []int {
	n := g.NumVertices()
	if cap(dst) < n {
		dst = make([]int, n)
	}
	dst = dst[:n]
	if cap(s.keys) < n {
		s.keys = make([]rankKey, max(n, smallGraph))
	}
	keys := s.keys[:n]
	for v := range keys {
		keys[v] = rankKey{scores[v], uint64(math.MaxUint32-uint32(g.Degree(v)))<<32 | uint64(v)}
	}
	if n <= smallGraph {
		for i := 1; i < n; i++ {
			k := keys[i]
			j := i
			for ; j > 0 && k.less(keys[j-1]); j-- {
				keys[j] = keys[j-1]
			}
			keys[j] = k
		}
	} else {
		slices.SortFunc(keys, compareRankKeys)
	}
	for r, k := range keys {
		dst[uint32(k.tie)] = r
	}
	return dst
}
