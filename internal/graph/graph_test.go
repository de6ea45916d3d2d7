package graph

import (
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"graphhd/internal/hdc"
)

func mustGraph(t *testing.T, n int, edges [][2]int) *Graph {
	t.Helper()
	g, err := FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBuilderBasic(t *testing.T) {
	g := mustGraph(t, 4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	if g.NumVertices() != 4 || g.NumEdges() != 4 {
		t.Fatalf("got %v", g)
	}
	for v := 0; v < 4; v++ {
		if g.Degree(v) != 2 {
			t.Fatalf("degree(%d) = %d, want 2", v, g.Degree(v))
		}
	}
}

func TestBuilderDeduplicatesAndDropsSelfLoops(t *testing.T) {
	g := mustGraph(t, 3, [][2]int{{0, 1}, {1, 0}, {0, 1}, {2, 2}})
	if g.NumEdges() != 1 {
		t.Fatalf("edges = %d, want 1", g.NumEdges())
	}
	if g.HasEdge(2, 2) {
		t.Fatal("self-loop present")
	}
}

// oracleBuild is the Builder as it was before Build sorted once: a dedup
// map on insert, a sort.Slice over the edges and one per adjacency list.
// It is the reference the sort-once Builder must reproduce. pairs must be
// in range.
func oracleBuild(n int, pairs [][2]int, labels []int) *Graph {
	seen := make(map[Edge]struct{})
	var edges []Edge
	for _, p := range pairs {
		u, v := p[0], p[1]
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		e := Edge{int32(u), int32(v)}
		if _, dup := seen[e]; dup {
			continue
		}
		seen[e] = struct{}{}
		edges = append(edges, e)
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].U != edges[j].U {
			return edges[i].U < edges[j].U
		}
		return edges[i].V < edges[j].V
	})
	deg := make([]int32, n)
	for _, e := range edges {
		deg[e.U]++
		deg[e.V]++
	}
	off := make([]int32, n+1)
	for v := 0; v < n; v++ {
		off[v+1] = off[v] + deg[v]
	}
	adj := make([]int32, off[n])
	pos := make([]int32, n)
	copy(pos, off[:n])
	for _, e := range edges {
		adj[pos[e.U]] = e.V
		pos[e.U]++
		adj[pos[e.V]] = e.U
		pos[e.V]++
	}
	for v := 0; v < n; v++ {
		s := adj[off[v]:off[v+1]]
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	}
	var vl []int
	if labels != nil {
		vl = slices.Clone(labels)
	}
	return &Graph{n: n, off: off, adj: adj, edges: edges, vertexLabels: vl}
}

// OracleBuild exposes oracleBuild to the external graph_test package.
var OracleBuild = oracleBuild

// sameGraph reports the first difference between got and want in vertex
// count, edge list, any adjacency list or the labels, or "".
func sameGraph(got, want *Graph) string {
	if got.NumVertices() != want.NumVertices() {
		return "vertex count"
	}
	if !slices.Equal(got.Edges(), want.Edges()) {
		return "edge list"
	}
	for v := 0; v < want.NumVertices(); v++ {
		if !slices.Equal(got.Neighbors(v), want.Neighbors(v)) {
			return "neighbors"
		}
		if got.VertexLabel(v) != want.VertexLabel(v) {
			return "labels"
		}
	}
	if got.Labeled() != want.Labeled() {
		return "labeledness"
	}
	return ""
}

// SameGraph exposes sameGraph to the external graph_test package.
var SameGraph = sameGraph

// TestBuildMatchesOracle feeds seeded random edge multisets — duplicates,
// both orientations, self-loops, edgeless and empty graphs, n up to ~300
// — through the Builder and the oracle and requires identical graphs.
// Half the trials call NumEdges part-way, so compaction is followed by
// more appends.
func TestBuildMatchesOracle(t *testing.T) {
	rng := hdc.NewRNG(17)
	for trial := 0; trial < 400; trial++ {
		n := rng.Intn(301)
		var pairs [][2]int
		if n > 0 && trial%10 != 0 { // every tenth graph is edgeless
			m := rng.Intn(3*n + 1)
			for len(pairs) < m {
				switch r := rng.Intn(10); {
				case r == 0: // self-loop
					u := rng.Intn(n)
					pairs = append(pairs, [2]int{u, u})
				case r < 4 && len(pairs) > 0: // duplicate, either orientation
					p := pairs[rng.Intn(len(pairs))]
					if r%2 == 0 {
						p[0], p[1] = p[1], p[0]
					}
					pairs = append(pairs, p)
				default:
					pairs = append(pairs, [2]int{rng.Intn(n), rng.Intn(n)})
				}
			}
		}
		var labels []int
		if trial%3 == 0 {
			labels = make([]int, n)
			for v := range labels {
				labels[v] = rng.Intn(5)
			}
		}
		want := oracleBuild(n, pairs, labels)
		b := NewBuilder(n)
		for i, p := range pairs {
			if trial%2 == 1 && i == len(pairs)/2 {
				b.NumEdges()
			}
			b.MustAddEdge(p[0], p[1])
		}
		if labels != nil {
			if err := b.SetVertexLabels(labels); err != nil {
				t.Fatal(err)
			}
		}
		if b.NumEdges() != want.NumEdges() {
			t.Fatalf("trial %d: Builder.NumEdges = %d, oracle has %d edges", trial, b.NumEdges(), want.NumEdges())
		}
		if diff := sameGraph(b.Build(), want); diff != "" {
			t.Fatalf("trial %d (n=%d, %d pairs): %s differs from the oracle", trial, n, len(pairs), diff)
		}
	}
}

func TestBuilderNumEdgesCountsDistinct(t *testing.T) {
	b := NewBuilder(4)
	b.MustAddEdge(0, 1)
	b.MustAddEdge(2, 3)
	b.MustAddEdge(1, 2)
	if got := b.NumEdges(); got != 3 {
		t.Fatalf("NumEdges = %d, want 3", got)
	}
	b.MustAddEdge(1, 0)
	b.MustAddEdge(2, 3)
	b.MustAddEdge(3, 3)
	if got := b.NumEdges(); got != 3 {
		t.Fatalf("after duplicates and a self-loop NumEdges = %d, want 3", got)
	}
	b.MustAddEdge(3, 0)
	if got := b.NumEdges(); got != 4 {
		t.Fatalf("after a new edge NumEdges = %d, want 4", got)
	}
	if g := b.Build(); g.NumEdges() != 4 {
		t.Fatalf("built graph has %d edges, want 4", g.NumEdges())
	}
}

func TestBuilderRejectsOutOfRange(t *testing.T) {
	b := NewBuilder(2)
	if err := b.AddEdge(0, 2); err == nil {
		t.Fatal("expected range error")
	}
	if err := b.AddEdge(-1, 0); err == nil {
		t.Fatal("expected range error")
	}
}

func TestNeighborsSorted(t *testing.T) {
	g := mustGraph(t, 5, [][2]int{{0, 4}, {0, 2}, {0, 1}, {0, 3}})
	ns := g.Neighbors(0)
	for i := 1; i < len(ns); i++ {
		if ns[i-1] >= ns[i] {
			t.Fatalf("neighbors not sorted: %v", ns)
		}
	}
}

func TestHasEdge(t *testing.T) {
	g := mustGraph(t, 4, [][2]int{{0, 1}, {2, 3}})
	cases := []struct {
		u, v int
		want bool
	}{
		{0, 1, true}, {1, 0, true}, {2, 3, true},
		{0, 2, false}, {0, 0, false}, {-1, 1, false}, {0, 7, false},
	}
	for _, c := range cases {
		if got := g.HasEdge(c.u, c.v); got != c.want {
			t.Errorf("HasEdge(%d,%d) = %v, want %v", c.u, c.v, got, c.want)
		}
	}
}

// TestEdgesCanonical checks that Edges() lists each edge once with
// U < V, strictly increasing in (U, V) whatever order the edges were
// added in — the order pagerank.ScoresInto's float64 sums rely on.
func TestEdgesCanonical(t *testing.T) {
	rng := hdc.NewRNG(23)
	gs := []*Graph{
		mustGraph(t, 4, [][2]int{{3, 1}, {2, 0}}),
		mustGraph(t, 5, [][2]int{{4, 0}, {3, 1}, {1, 0}, {4, 2}, {0, 4}, {2, 1}, {3, 3}}),
		Relabel(BarabasiAlbert(40, 3, rng), rng.Perm(40)),
		Relabel(ErdosRenyi(60, 0.1, rng), rng.Perm(60)),
		Disjoint(Grid(3, 4), Ring(5)),
	}
	for gi, g := range gs {
		es := g.Edges()
		for i, e := range es {
			if e.U >= e.V {
				t.Fatalf("graph %d: edge %v not canonical", gi, e)
			}
			if i == 0 {
				continue
			}
			if p := es[i-1]; p.U > e.U || (p.U == e.U && p.V >= e.V) {
				t.Fatalf("graph %d: edge %v does not follow %v in (U, V) order", gi, e, p)
			}
		}
	}
}

func TestDensity(t *testing.T) {
	if d := Complete(5).Density(); d != 1 {
		t.Fatalf("K5 density = %f", d)
	}
	if d := NewBuilder(5).Build().Density(); d != 0 {
		t.Fatalf("empty density = %f", d)
	}
	if d := NewBuilder(1).Build().Density(); d != 0 {
		t.Fatalf("single-vertex density = %f", d)
	}
}

func TestConnectedComponents(t *testing.T) {
	g := mustGraph(t, 6, [][2]int{{0, 1}, {1, 2}, {3, 4}})
	n, comp := g.ConnectedComponents()
	if n != 3 {
		t.Fatalf("components = %d, want 3", n)
	}
	if comp[0] != comp[2] || comp[3] != comp[4] || comp[0] == comp[3] || comp[5] == comp[0] {
		t.Fatalf("bad component assignment %v", comp)
	}
}

func TestTriangles(t *testing.T) {
	if n := Complete(4).Triangles(); n != 4 {
		t.Fatalf("K4 triangles = %d, want 4", n)
	}
	if n := Ring(5).Triangles(); n != 0 {
		t.Fatalf("C5 triangles = %d, want 0", n)
	}
	if n := Complete(3).Triangles(); n != 1 {
		t.Fatalf("K3 triangles = %d, want 1", n)
	}
}

func TestMaxDegree(t *testing.T) {
	if d := Star(10).MaxDegree(); d != 9 {
		t.Fatalf("star max degree = %d", d)
	}
	if d := NewBuilder(0).Build().MaxDegree(); d != 0 {
		t.Fatalf("empty max degree = %d", d)
	}
	// Build counts it once; it must equal a scan of every degree.
	rng := hdc.NewRNG(31)
	for _, g := range []*Graph{ErdosRenyi(40, 0.1, rng), BarabasiAlbert(60, 3, rng), NewBuilder(7).Build(), Disjoint(Path(3), Star(6))} {
		want := 0
		for v := 0; v < g.NumVertices(); v++ {
			want = max(want, g.Degree(v))
		}
		if d := g.MaxDegree(); d != want {
			t.Fatalf("%v: max degree %d, scan %d", g, d, want)
		}
	}
}

func TestVertexLabels(t *testing.T) {
	b := NewBuilder(3)
	b.MustAddEdge(0, 1)
	if err := b.SetVertexLabels([]int{5, 6, 7}); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	if !g.Labeled() || g.VertexLabel(2) != 7 {
		t.Fatal("labels not preserved")
	}
	unlabeled := mustGraph(t, 2, nil)
	if unlabeled.Labeled() || unlabeled.VertexLabel(0) != 0 {
		t.Fatal("unlabeled graph misbehaves")
	}
	if err := NewBuilder(2).SetVertexLabels([]int{1}); err == nil {
		t.Fatal("expected length mismatch error")
	}
}

// --- generators ---

func TestErdosRenyiExtremes(t *testing.T) {
	rng := hdc.NewRNG(1)
	if g := ErdosRenyi(10, 0, rng); g.NumEdges() != 0 {
		t.Fatalf("p=0 edges = %d", g.NumEdges())
	}
	if g := ErdosRenyi(10, 1, rng); g.NumEdges() != 45 {
		t.Fatalf("p=1 edges = %d", g.NumEdges())
	}
}

func TestErdosRenyiEdgeCountNearExpectation(t *testing.T) {
	rng := hdc.NewRNG(2)
	n, p := 200, 0.05
	g := ErdosRenyi(n, p, rng)
	want := p * float64(n*(n-1)) / 2 // 995
	got := float64(g.NumEdges())
	if got < want*0.8 || got > want*1.2 {
		t.Fatalf("edges = %v, want within 20%% of %v", got, want)
	}
}

func TestErdosRenyiDeterministic(t *testing.T) {
	a := ErdosRenyi(50, 0.1, hdc.NewRNG(7))
	b := ErdosRenyi(50, 0.1, hdc.NewRNG(7))
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("same seed, different graphs")
	}
	for i, e := range a.Edges() {
		if b.Edges()[i] != e {
			t.Fatal("same seed, different edges")
		}
	}
}

func TestBarabasiAlbert(t *testing.T) {
	rng := hdc.NewRNG(3)
	g := BarabasiAlbert(100, 2, rng)
	if g.NumVertices() != 100 {
		t.Fatalf("n = %d", g.NumVertices())
	}
	// Initial clique K3 has 3 edges; each of the 97 added vertices brings
	// m=2 edges.
	if want := 3 + 97*2; g.NumEdges() != want {
		t.Fatalf("edges = %d, want %d", g.NumEdges(), want)
	}
	nc, _ := g.ConnectedComponents()
	if nc != 1 {
		t.Fatalf("BA graph has %d components", nc)
	}
	// Preferential attachment yields hubs well above the ER max degree.
	if g.MaxDegree() < 8 {
		t.Fatalf("max degree = %d, expected a hub", g.MaxDegree())
	}
}

func TestBarabasiAlbertSmallN(t *testing.T) {
	g := BarabasiAlbert(3, 5, hdc.NewRNG(4))
	if g.NumEdges() != 3 { // falls back to K3
		t.Fatalf("edges = %d", g.NumEdges())
	}
}

func TestWattsStrogatz(t *testing.T) {
	rng := hdc.NewRNG(5)
	g := WattsStrogatz(50, 4, 0, rng)
	// beta=0: pure ring lattice, every vertex has degree 4, 100 edges.
	if g.NumEdges() != 100 {
		t.Fatalf("edges = %d, want 100", g.NumEdges())
	}
	for v := 0; v < 50; v++ {
		if g.Degree(v) != 4 {
			t.Fatalf("degree(%d) = %d", v, g.Degree(v))
		}
	}
	rewired := WattsStrogatz(50, 4, 0.5, rng)
	if rewired.NumEdges() == 0 || rewired.NumEdges() > 100 {
		t.Fatalf("rewired edges = %d", rewired.NumEdges())
	}
}

func TestSmallGraphShapes(t *testing.T) {
	if g := Ring(6); g.NumEdges() != 6 || g.Degree(0) != 2 {
		t.Fatalf("ring: %v", g)
	}
	if g := Path(6); g.NumEdges() != 5 || g.Degree(0) != 1 {
		t.Fatalf("path: %v", g)
	}
	if g := Star(6); g.NumEdges() != 5 || g.Degree(0) != 5 {
		t.Fatalf("star: %v", g)
	}
	if g := Grid(3, 4); g.NumVertices() != 12 || g.NumEdges() != 17 {
		t.Fatalf("grid: %v", g)
	}
	if g := Ring(2); g.NumEdges() != 1 {
		t.Fatalf("ring(2): %v", g)
	}
	if g := Ring(1); g.NumEdges() != 0 {
		t.Fatalf("ring(1): %v", g)
	}
}

func TestMotifChain(t *testing.T) {
	g := MotifChain(5, []Motif{MotifTriangle, MotifHexagon})
	// backbone 5 + triangle 2 + hexagon 5 vertices
	if g.NumVertices() != 12 {
		t.Fatalf("vertices = %d", g.NumVertices())
	}
	// backbone 4 + triangle 3 + hexagon 6 edges
	if g.NumEdges() != 13 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
	if g.Triangles() != 1 {
		t.Fatalf("triangles = %d", g.Triangles())
	}
	nc, _ := g.ConnectedComponents()
	if nc != 1 {
		t.Fatalf("motif chain disconnected: %d components", nc)
	}
}

func TestMotifChainAllMotifs(t *testing.T) {
	motifs := []Motif{MotifTriangle, MotifSquare, MotifPentagon, MotifHexagon, MotifBranch, MotifFusedSq}
	g := MotifChain(10, motifs)
	nc, _ := g.ConnectedComponents()
	if nc != 1 {
		t.Fatalf("disconnected with all motifs: %d components", nc)
	}
}

func TestCommunityGraph(t *testing.T) {
	rng := hdc.NewRNG(6)
	g := CommunityGraph([]int{20, 20}, 0.5, 0.01, rng)
	if g.NumVertices() != 40 {
		t.Fatalf("n = %d", g.NumVertices())
	}
	// Count intra vs inter edges: intra should dominate.
	intra, inter := 0, 0
	for _, e := range g.Edges() {
		sameSide := (e.U < 20) == (e.V < 20)
		if sameSide {
			intra++
		} else {
			inter++
		}
	}
	if intra <= inter*5 {
		t.Fatalf("intra = %d, inter = %d: communities not planted", intra, inter)
	}
}

func TestDisjoint(t *testing.T) {
	g := Disjoint(Ring(3), Path(3))
	if g.NumVertices() != 6 || g.NumEdges() != 5 {
		t.Fatalf("disjoint: %v", g)
	}
	nc, _ := g.ConnectedComponents()
	if nc != 2 {
		t.Fatalf("components = %d", nc)
	}
}

func TestRelabelPreservesStructure(t *testing.T) {
	rng := hdc.NewRNG(8)
	f := func(seed uint64) bool {
		r := hdc.NewRNG(seed ^ rng.Uint64())
		g := ErdosRenyi(20, 0.2, r)
		perm := r.Perm(20)
		h := Relabel(g, perm)
		if h.NumEdges() != g.NumEdges() {
			return false
		}
		// Degree multiset must be preserved.
		dg := make([]int, 21)
		dh := make([]int, 21)
		for v := 0; v < 20; v++ {
			dg[g.Degree(v)]++
			dh[h.Degree(v)]++
		}
		for i := range dg {
			if dg[i] != dh[i] {
				return false
			}
		}
		return h.Triangles() == g.Triangles()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestGraphString(t *testing.T) {
	if s := Ring(3).String(); s != "Graph(n=3, m=3)" {
		t.Fatalf("String() = %q", s)
	}
}
