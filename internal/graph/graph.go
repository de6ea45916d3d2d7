// Package graph provides the graph substrate for GraphHD: an immutable
// undirected graph type with CSR-style adjacency, builders, random-graph
// generators, dataset statistics and the TUDataset flat-file format.
package graph

import (
	"fmt"
	"slices"
	"sort"
)

// Graph is an immutable simple undirected graph. Vertices are the integers
// [0, N). Build one with a Builder or a generator; once constructed, a
// Graph is safe for concurrent use.
type Graph struct {
	n int
	// CSR adjacency: the neighbors of vertex v are adj[off[v]:off[v+1]],
	// sorted ascending. Each undirected edge appears in both endpoints'
	// lists.
	off []int32
	adj []int32
	// edges lists each undirected edge exactly once with U < V, sorted.
	edges []Edge
	// maxDegree is the largest vertex degree, counted by Build.
	maxDegree int
	// vertexLabels is nil for unlabeled graphs (the GraphHD baseline
	// setting) or holds one categorical label per vertex.
	vertexLabels []int
}

// Edge is an undirected edge with U < V.
type Edge struct {
	U, V int32
}

// NumVertices returns |V|.
func (g *Graph) NumVertices() int { return g.n }

// NumEdges returns |E| (each undirected edge counted once).
func (g *Graph) NumEdges() int { return len(g.edges) }

// Edges returns the edge list, sorted by (U, V), each edge once with U<V.
// The returned slice is shared; callers must not modify it.
func (g *Graph) Edges() []Edge { return g.edges }

// Neighbors returns the sorted neighbor list of v. The returned slice is
// shared; callers must not modify it.
func (g *Graph) Neighbors(v int) []int32 {
	return g.adj[g.off[v]:g.off[v+1]]
}

// Degree returns the number of neighbors of v.
func (g *Graph) Degree(v int) int {
	return int(g.off[v+1] - g.off[v])
}

// HasEdge reports whether {u, v} is an edge, via binary search on the
// smaller adjacency list.
func (g *Graph) HasEdge(u, v int) bool {
	if u == v || u < 0 || v < 0 || u >= g.n || v >= g.n {
		return false
	}
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	ns := g.Neighbors(u)
	i := sort.Search(len(ns), func(i int) bool { return ns[i] >= int32(v) })
	return i < len(ns) && ns[i] == int32(v)
}

// Labeled reports whether the graph carries vertex labels.
func (g *Graph) Labeled() bool { return g.vertexLabels != nil }

// VertexLabel returns the categorical label of v, or 0 if unlabeled.
func (g *Graph) VertexLabel(v int) int {
	if g.vertexLabels == nil {
		return 0
	}
	return g.vertexLabels[v]
}

// MaxDegree returns the largest vertex degree, or 0 for an empty graph.
func (g *Graph) MaxDegree() int { return g.maxDegree }

// Density returns 2|E| / (|V|(|V|-1)), the fraction of connected vertex
// pairs; 0 for graphs with fewer than two vertices.
func (g *Graph) Density() float64 {
	if g.n < 2 {
		return 0
	}
	return 2 * float64(len(g.edges)) / (float64(g.n) * float64(g.n-1))
}

// ConnectedComponents returns the number of connected components and a
// component id per vertex.
func (g *Graph) ConnectedComponents() (int, []int) {
	comp := make([]int, g.n)
	for i := range comp {
		comp[i] = -1
	}
	count := 0
	stack := make([]int32, 0, g.n)
	for s := 0; s < g.n; s++ {
		if comp[s] != -1 {
			continue
		}
		stack = append(stack[:0], int32(s))
		comp[s] = count
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range g.Neighbors(int(v)) {
				if comp[w] == -1 {
					comp[w] = count
					stack = append(stack, w)
				}
			}
		}
		count++
	}
	return count, comp
}

// Triangles returns the number of triangles in the graph, counted with the
// standard forward algorithm (each triangle once).
func (g *Graph) Triangles() int {
	count := 0
	for u := 0; u < g.n; u++ {
		nu := g.Neighbors(u)
		for _, w := range nu {
			v := int(w)
			if v <= u {
				continue
			}
			// Count common neighbors x with x > v via sorted-list merge.
			nv := g.Neighbors(v)
			i, j := 0, 0
			for i < len(nu) && j < len(nv) {
				a, b := nu[i], nv[j]
				switch {
				case a < b:
					i++
				case a > b:
					j++
				default:
					if int(a) > v {
						count++
					}
					i++
					j++
				}
			}
		}
	}
	return count
}

// String renders a short diagnostic form.
func (g *Graph) String() string {
	return fmt.Sprintf("Graph(n=%d, m=%d)", g.n, len(g.edges))
}

// Builder accumulates vertices and edges and produces an immutable Graph.
// Duplicate edges and self-loops are silently dropped, matching the
// "simple undirected graph" model the paper assumes.
//
// AddEdge only appends the normalized edge; Build sorts the edges once,
// drops duplicates and lays out the CSR adjacency in a single pass. No
// per-edge hashing and no per-vertex sort is needed: walking the edges in
// (U, V) order appends each vertex's lower neighbours in ascending order
// before its upper ones, so every adjacency list comes out sorted.
type Builder struct {
	n int
	// keys holds one U<<32|V key per added edge (U < V), in insertion
	// order and possibly with duplicates until sortKeys compacts them.
	keys   []uint64
	labels []int
}

// NewBuilder returns a builder for a graph with n vertices.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Builder{n: n}
}

// newBuilderCap is NewBuilder with room for m edges, for callers that
// know the edge count up front.
func newBuilderCap(n, m int) *Builder {
	b := NewBuilder(n)
	b.keys = make([]uint64, 0, m)
	return b
}

// AddEdge adds the undirected edge {u, v}. Self-loops and duplicates are
// ignored; out-of-range endpoints return an error.
func (b *Builder) AddEdge(u, v int) error {
	if u < 0 || v < 0 || u >= b.n || v >= b.n {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n)
	}
	if u == v {
		return nil
	}
	if u > v {
		u, v = v, u
	}
	b.keys = append(b.keys, uint64(u)<<32|uint64(v))
	return nil
}

// MustAddEdge is AddEdge that panics on out-of-range endpoints; for use by
// generators whose indices are correct by construction.
func (b *Builder) MustAddEdge(u, v int) {
	if err := b.AddEdge(u, v); err != nil {
		panic(err)
	}
}

// SetVertexLabels attaches categorical vertex labels; len(labels) must
// equal the vertex count.
func (b *Builder) SetVertexLabels(labels []int) error {
	if len(labels) != b.n {
		return fmt.Errorf("graph: %d labels for %d vertices", len(labels), b.n)
	}
	b.labels = make([]int, len(labels))
	copy(b.labels, labels)
	return nil
}

// sortKeys sorts the edge keys and drops duplicates, in place.
func (b *Builder) sortKeys() {
	slices.Sort(b.keys)
	b.keys = slices.Compact(b.keys)
}

// NumEdges returns the number of distinct edges added so far.
func (b *Builder) NumEdges() int {
	b.sortKeys()
	return len(b.keys)
}

// Build finalizes the graph. The builder may be reused afterwards only by
// creating a new one; Build is a terminal operation.
func (b *Builder) Build() *Graph {
	b.sortKeys()
	n, m := b.n, len(b.keys)
	edges := make([]Edge, m)
	// off and adj share one allocation. off[v+1] first counts v's degree,
	// then holds the start of v's list, then serves as v's write cursor,
	// so after the fill it is the end of v's list — the start of v+1's.
	csr := make([]int32, n+1+2*m)
	off, adj := csr[:n+1], csr[n+1:]
	for i, k := range b.keys {
		e := Edge{U: int32(k >> 32), V: int32(uint32(k))}
		edges[i] = e
		off[e.U+1]++
		off[e.V+1]++
	}
	var start, maxDeg int32
	for v := 1; v <= n; v++ {
		if off[v] > maxDeg {
			maxDeg = off[v]
		}
		start, off[v] = start+off[v], start
	}
	for _, e := range edges {
		adj[off[e.U+1]] = e.V
		off[e.U+1]++
		adj[off[e.V+1]] = e.U
		off[e.V+1]++
	}
	return &Graph{n: n, off: off, adj: adj, edges: edges, maxDegree: int(maxDeg), vertexLabels: b.labels}
}

// FromEdges is a convenience constructor building a graph directly from an
// edge list.
func FromEdges(n int, edges [][2]int) (*Graph, error) {
	b := newBuilderCap(n, len(edges))
	for _, e := range edges {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			return nil, err
		}
	}
	return b.Build(), nil
}
