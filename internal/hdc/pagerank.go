package hdc

// PageRankMaxDegree is the largest vertex degree PageRankInto takes. The
// kernel keeps one round of neighbour indices per degree in its stack
// frame, 576 bytes a round, and reads each vertex's damped inverse
// degree from an eight-entry table of d/1 … d/8.
const PageRankMaxDegree = 8

// pageRankArgs is the pageRank kernel's argument block, passed by value
// so that it lives in the kernel's argument frame and never on the heap.
// Its field offsets are part of the assembly ABI — kernels_amd64.s reads
// them as a_edges+0(FP) … a_dst+40(FP) — and are pinned by
// TestPageRankArgsABIOffsets.
type pageRankArgs struct {
	edges      *[2]int32 // +0  the (U, V) pairs of a simple undirected graph
	m          int64     // +8  edges
	n          int64     // +16 vertices, 1 to MaxRankCount
	iterations int64     // +24 power-iteration steps, at least 1
	damping    float64   // +32
	dst        *float64  // +40 n scores
}

// PageRankInto runs PageRank's damped power iteration over the n-vertex
// simple undirected graph whose edges are the (U, V) pairs of edges — each
// edge once, no self-loop — and writes every vertex's score into dst,
// reporting true. The scores are float64-equal to the edge-order power
// loop of package pagerank: each iteration sums the dangling vertices'
// scores in ascending order, sets base = (1−d)·inv + (d·dangling)·inv
// with inv = 1/n and each product rounded on its own, and gives vertex v
// base plus the shares cur[w]·(d/deg(w)) of its neighbours w in ascending
// order, adding one share at a time.
//
// It reports false, before writing anything, when the active tier has no
// pageRank kernel (only AVX-512 has one), when n is outside [1,
// MaxRankCount] or dst holds fewer than n scores, when iterations is
// below 1, when an endpoint lies outside [0, n), or when a vertex has
// more than PageRankMaxDegree neighbours. The caller then runs its own
// power loop.
func PageRankInto(edges [][2]int32, n int, damping float64, iterations int, dst []float64) bool {
	kern := loadKernels()
	if kern.pageRank == nil || n < 1 || n > MaxRankCount || len(dst) < n || iterations < 1 {
		return false
	}
	var e *[2]int32
	if len(edges) > 0 {
		e = &edges[0]
	}
	return kern.pageRank(pageRankArgs{
		edges:      e,
		m:          int64(len(edges)),
		n:          int64(n),
		iterations: int64(iterations),
		damping:    damping,
		dst:        &dst[0],
	})
}
