package pagerank

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"unsafe"

	"graphhd/internal/dataset"
	"graphhd/internal/graph"
	"graphhd/internal/hdc"
)

// TestEdgeLayout pins graph.Edge to the (U, V) int32 pair that
// hdc.PageRankInto reads through edgePairs: 8 bytes, U at 0, V at 4.
func TestEdgeLayout(t *testing.T) {
	var e graph.Edge
	if unsafe.Sizeof(e) != 8 || unsafe.Offsetof(e.U) != 0 || unsafe.Offsetof(e.V) != 4 {
		t.Fatalf("graph.Edge is %d bytes, U at %d, V at %d; the kernel reads 8, 0, 4", unsafe.Sizeof(e), unsafe.Offsetof(e.U), unsafe.Offsetof(e.V))
	}
	edges := graph.Star(5).Edges()
	pairs := edgePairs(edges)
	if len(pairs) != len(edges) {
		t.Fatalf("%d pairs for %d edges", len(pairs), len(edges))
	}
	for i, e := range edges {
		if pairs[i] != [2]int32{e.U, e.V} {
			t.Fatalf("pair %d = %v, edge %v", i, pairs[i], e)
		}
	}
	if edgePairs(nil) != nil {
		t.Fatal("edgePairs(nil) is not nil")
	}
}

// kernelTakes reports whether the pull kernel runs g on tier: AVX-512,
// 1 to 64 vertices, no degree over hdc.PageRankMaxDegree.
func kernelTakes(tier hdc.KernelTier, g *graph.Graph) bool {
	n := g.NumVertices()
	return tier == hdc.KernelAVX512 && n >= 1 && n <= hdc.MaxRankCount && g.MaxDegree() <= hdc.PageRankMaxDegree
}

// circulant returns the n-cycle with every vertex also joined to the
// vertices up to k steps away: degree 2k once n > 2k.
func circulant(n, k int) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		for j := 1; j <= k; j++ {
			if w := (v + j) % n; w != v {
				b.MustAddEdge(v, w)
			}
		}
	}
	return b.Build()
}

// smallGraphs returns the kernel contract's shapes on n vertices: paths,
// rings, stars (degree n−1, so they decline past the cap), complete
// graphs, sparse and dense Erdős–Rényi graphs, the degree-8 circulant,
// edgeless graphs, and a disjoint union with isolated vertices, also
// shuffled so the dangling vertices sit in every block.
func smallGraphs(n int) map[string]*graph.Graph {
	rng := hdc.NewRNG(uint64(n))
	half := graph.Disjoint(graph.Path(n/2), graph.NewBuilder(n-n/2).Build())
	return map[string]*graph.Graph{
		"path":      graph.Path(n),
		"ring":      graph.Ring(n),
		"star":      graph.Star(n),
		"complete":  graph.Complete(n),
		"er":        graph.ErdosRenyi(n, min(1, 3/float64(n)), rng),
		"er-dense":  graph.ErdosRenyi(n, 0.15, rng),
		"circulant": circulant(n, 4),
		"edgeless":  graph.NewBuilder(n).Build(),
		"union":     half,
		"shuffled":  graph.Relabel(half, rng.Perm(n)),
	}
}

// contractCase is one graph with its push-oracle scores and ranks under
// one option set.
type contractCase struct {
	name   string
	g      *graph.Graph
	opts   Options
	scores []float64
	ranks  []int
}

// contractCases builds the graphs of TestScoresSmallMatchesEdgePass —
// every shape of smallGraphs for n from 1 to 65, and the six datasets at
// seed 1 (DD's first 100 graphs: every DD graph is above 64 vertices) —
// under 1, 2, 3 and 10 iterations at damping 0.5 and 0.85, each with the
// push oracle's scores and the ranks they sort to.
func contractCases(t *testing.T) []contractCase {
	t.Helper()
	type named struct {
		name string
		g    *graph.Graph
	}
	var graphs []named
	for n := 1; n <= hdc.MaxRankCount+1; n++ {
		for name, g := range smallGraphs(n) {
			graphs = append(graphs, named{fmt.Sprintf("%s/n=%d", name, n), g})
		}
	}
	for _, name := range dataset.Names() {
		ds, err := dataset.Generate(name, dataset.Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		gs := ds.Graphs
		if name == "DD" {
			gs = gs[:100]
		}
		for i, g := range gs {
			graphs = append(graphs, named{fmt.Sprintf("%s/%d", name, i), g})
		}
	}
	var cases []contractCase
	for _, ng := range graphs {
		for _, iters := range []int{1, 2, 3, 10} {
			for _, damping := range []float64{0.5, DefaultDamping} {
				opts := Options{Damping: damping, Iterations: iters}
				scores := pushScores(ng.g, opts)
				ranks := make([]int, len(scores))
				for r, v := range referenceOrder(ng.g, scores) {
					ranks[v] = r
				}
				cases = append(cases, contractCase{ng.name, ng.g, opts, scores, ranks})
			}
		}
	}
	return cases
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestScoresSmallMatchesEdgePass pins the pull kernel's contract on
// every tier: ScoresInto's scores are bit-identical to the edge pass and
// to the push oracle, RanksInto's ranks are the oracle's, and
// hdc.PageRankInto runs exactly the graphs it claims — on AVX-512 every
// graph of 1 to 64 vertices and degree at most 8, on the other tiers
// none — with the edge pass's bits, declining without writing dst.
func TestScoresSmallMatchesEdgePass(t *testing.T) {
	cases := contractCases(t)
	forEachKernelTier(t, func(t *testing.T, tier hdc.KernelTier) {
		var s, edge Scratch
		var ranks []int
		kdst := make([]float64, hdc.MaxRankCount+1)
		took := 0
		for _, c := range cases {
			n := c.g.NumVertices()
			edge.ensure(n)
			want := edge.edgePass(c.g, c.opts)
			if !sameBits(want, c.scores) {
				t.Fatalf("%s %+v: edge pass %v, push oracle %v", c.name, c.opts, want, c.scores)
			}
			if got := ScoresInto(c.g, c.opts, &s); !sameBits(got, c.scores) {
				t.Fatalf("%s %+v: scores %v, push oracle %v", c.name, c.opts, got, c.scores)
			}
			if ranks = RanksInto(c.g, c.opts, ranks, &s); !slices.Equal(ranks, c.ranks) {
				t.Fatalf("%s %+v: ranks %v, push oracle %v", c.name, c.opts, ranks, c.ranks)
			}
			for i := range kdst {
				kdst[i] = -1
			}
			ok := hdc.PageRankInto(edgePairs(c.g.Edges()), n, c.opts.Damping, c.opts.Iterations, kdst[:min(n, len(kdst))])
			if ok != kernelTakes(tier, c.g) {
				t.Fatalf("%s (max degree %d) on %s: PageRankInto reported %v", c.name, c.g.MaxDegree(), tier, ok)
			}
			switch {
			case ok:
				took++
				if !sameBits(kdst[:n], c.scores) {
					t.Fatalf("%s %+v: kernel %v, push oracle %v", c.name, c.opts, kdst[:n], c.scores)
				}
				if kdst[n] != -1 {
					t.Fatalf("%s: kernel wrote past dst[%d]", c.name, n-1)
				}
			case slices.ContainsFunc(kdst, func(x float64) bool { return x != -1 }):
				t.Fatalf("%s: a declined graph wrote dst", c.name)
			}
		}
		if tier == hdc.KernelAVX512 && took == 0 {
			t.Fatal("the kernel took no graph")
		}
		t.Logf("%s: the kernel took %d of %d cases", tier, took, len(cases))
	})
}

// TestPageRankIntoDeclines checks the declines that the graph shapes
// above cannot reach: no vertices, more than 64 vertices for dst, too
// short a dst, fewer than one iteration, and endpoints outside [0, n).
func TestPageRankIntoDeclines(t *testing.T) {
	forEachKernelTier(t, func(t *testing.T, tier hdc.KernelTier) {
		path := edgePairs(graph.Path(6).Edges())
		dst := make([]float64, 80)
		for _, c := range []struct {
			name  string
			edges [][2]int32
			n, it int
			dst   []float64
		}{
			{"no vertices", nil, 0, 10, dst},
			{"65 vertices", nil, 65, 10, dst},
			{"short dst", path, 6, 10, dst[:5]},
			{"no iterations", path, 6, 0, dst},
			{"negative iterations", path, 6, -3, dst},
			{"endpoint at n", path, 5, 10, dst},
			{"negative endpoint", [][2]int32{{0, 1}, {-1, 2}}, 6, 10, dst},
		} {
			if hdc.PageRankInto(c.edges, c.n, DefaultDamping, c.it, c.dst) {
				t.Errorf("%s: PageRankInto took it", c.name)
			}
		}
		if got, want := hdc.PageRankInto(path, 6, DefaultDamping, 10, dst), tier == hdc.KernelAVX512; got != want {
			t.Errorf("6-path: PageRankInto reported %v, want %v", got, want)
		}
	})
}

// FuzzScoresSmall compares the pull kernel bit for bit against the edge
// pass on random simple graphs of up to 64 vertices, at 1 to 12
// iterations and any damping in [0, 1), and checks that it takes
// exactly the graphs of degree at most hdc.PageRankMaxDegree.
func FuzzScoresSmall(f *testing.F) {
	f.Add(uint16(30), uint16(10), uint16(55705), []byte{0, 1, 1, 2, 2, 3, 3, 4, 4, 0, 2, 7, 7, 8, 8, 9, 29, 3})
	f.Add(uint16(10), uint16(1), uint16(32768), []byte{0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 0, 8, 0, 9})
	f.Add(uint16(64), uint16(3), uint16(1), []byte{63, 0, 62, 1, 17, 40})
	f.Fuzz(func(t *testing.T, n, iterations, damping uint16, pairs []byte) {
		nv := 1 + int(n)%hdc.MaxRankCount
		b := graph.NewBuilder(nv)
		for i := 0; i+1 < len(pairs); i += 2 {
			if u, v := int(pairs[i])%nv, int(pairs[i+1])%nv; u != v {
				b.MustAddEdge(u, v)
			}
		}
		g := b.Build()
		opts := Options{Damping: float64(damping) / 65536, Iterations: 1 + int(iterations)%12}
		var s Scratch
		s.ensure(nv)
		want := slices.Clone(s.edgePass(g, opts))
		got := make([]float64, nv)
		ok := hdc.PageRankInto(edgePairs(g.Edges()), nv, opts.Damping, opts.Iterations, got)
		if ok != kernelTakes(hdc.ActiveKernel(), g) {
			t.Fatalf("n=%d, max degree %d: PageRankInto reported %v on %s", nv, g.MaxDegree(), ok, hdc.ActiveKernel())
		}
		if ok && !sameBits(got, want) {
			t.Fatalf("n=%d %+v: kernel %v, edge pass %v", nv, opts, got, want)
		}
	})
}

// BenchmarkScoresSmall times ScoresInto per graph over the datasets
// whose graphs are mostly small, at seed 1, per tier: the pull kernel on
// AVX-512 (NCI1 and MUTAG take it for every graph, PROTEINS and ENZYMES
// for about 40% and 77%, the rest falling back to the edge pass), the
// edge pass elsewhere. The it=1 legs show the kernel's set-up.
func BenchmarkScoresSmall(b *testing.B) {
	prev := hdc.ActiveKernel()
	defer hdc.SetKernel(prev)
	for _, name := range []string{"NCI1", "MUTAG", "PROTEINS", "ENZYMES"} {
		gs := dataset.MustGenerate(name, dataset.Options{Seed: 1}).Graphs
		for _, it := range []int{10, 1} {
			opts := Options{Iterations: it}
			for _, tier := range hdc.SupportedKernels() {
				b.Run(fmt.Sprintf("%s/it=%d/%s", name, it, tier), func(b *testing.B) {
					if err := hdc.SetKernel(tier); err != nil {
						b.Fatal(err)
					}
					var s Scratch
					for _, g := range gs {
						ScoresInto(g, opts, &s)
					}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						for _, g := range gs {
							ScoresInto(g, opts, &s)
						}
					}
					b.StopTimer()
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(gs)), "ns/graph")
				})
			}
		}
	}
}
