// Package pagerank implements the PageRank centrality metric that GraphHD
// uses to derive topology-based vertex identifiers (Section IV-C of the
// paper). Scores are computed by damped power iteration on the undirected
// graph; the number of iterations is a parameter, fixed to 10 in all paper
// experiments "because the accuracy of GraphHD has then plateaued".
package pagerank

import (
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
// power-iteration score vectors and the vertex-order permutation. The zero
// value is ready to use; buffers grow to the largest graph seen and are
// then reused, so steady-state rank computation performs no heap
// allocations. A Scratch is not safe for concurrent use — each goroutine
// owns its own.
type Scratch struct {
	scores, next []float64
	order        []int
	dangling     []int32
	dinv         []float64
}

// ensure grows the buffers to cover n vertices.
func (s *Scratch) ensure(n int) {
	if cap(s.scores) < n {
		s.scores = make([]float64, n)
	}
	if cap(s.next) < n {
		s.next = make([]float64, n)
	}
	if cap(s.order) < n {
		s.order = make([]int, n)
	}
	if cap(s.dangling) < n {
		s.dangling = make([]int32, n)
	}
	if cap(s.dinv) < n {
		s.dinv = make([]float64, n)
	}
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

// vertexLess is the shared deterministic centrality ordering: score
// descending, then degree descending, then vertex id ascending. The final
// clause makes the order total, so every correct sort produces the same
// permutation.
func vertexLess(g *graph.Graph, scores []float64, u, v int) bool {
	if scores[u] != scores[v] {
		return scores[u] > scores[v]
	}
	if du, dv := g.Degree(u), g.Degree(v); du != dv {
		return du > dv
	}
	return u < v
}

// SortByCentrality sorts order — a slice of vertex ids of g — in place
// under the shared tie-break rule (score descending, degree descending, id
// ascending) without allocating. Because the ordering is total, the result
// is identical to what any stable sort under the same comparator produces.
// Exported for package centrality, which ranks non-PageRank score vectors
// with the same rule.
func SortByCentrality(g *graph.Graph, scores []float64, order []int) {
	n := len(order)
	// Benchmark-dataset graphs are mostly tiny (MUTAG averages 18
	// vertices), where insertion sort beats heapsort's constants. The
	// ordering is total, so both produce the identical permutation.
	if n <= 32 {
		for i := 1; i < n; i++ {
			x := order[i]
			j := i - 1
			for j >= 0 && vertexLess(g, scores, x, order[j]) {
				order[j+1] = order[j]
				j--
			}
			order[j+1] = x
		}
		return
	}
	// In-place heapsort: O(n log n), zero allocations, no recursion.
	for i := n/2 - 1; i >= 0; i-- {
		siftDown(g, scores, order, i, n)
	}
	for end := n - 1; end > 0; end-- {
		order[0], order[end] = order[end], order[0]
		siftDown(g, scores, order, 0, end)
	}
}

// siftDown restores the max-heap property ("max" under vertexLess's
// reversed sense, so the heap root is the vertex that sorts last).
func siftDown(g *graph.Graph, scores []float64, order []int, root, end int) {
	for {
		child := 2*root + 1
		if child >= end {
			return
		}
		if child+1 < end && vertexLess(g, scores, order[child], order[child+1]) {
			child++
		}
		if !vertexLess(g, scores, order[root], order[child]) {
			return
		}
		order[root], order[child] = order[child], order[root]
		root = child
	}
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
// buffer (scores and the vertex order). dst is grown when its capacity is
// insufficient, so callers that reuse the returned slice reach a steady
// state with zero heap allocations per graph.
func RanksInto(g *graph.Graph, opts Options, dst []int, s *Scratch) []int {
	n := g.NumVertices()
	scores := ScoresInto(g, opts, s)
	if cap(dst) < n {
		dst = make([]int, n)
	}
	dst = dst[:n]
	order := s.order[:n]
	for i := range order {
		order[i] = i
	}
	SortByCentrality(g, scores, order)
	for r, v := range order {
		dst[v] = r
	}
	return dst
}
