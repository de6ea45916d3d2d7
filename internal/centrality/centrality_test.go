package centrality

import (
	"math"
	"testing"
	"testing/quick"

	"graphhd/internal/graph"
	"graphhd/internal/hdc"
	"graphhd/internal/pagerank"
)

func TestMetricStrings(t *testing.T) {
	cases := map[Metric]string{
		PageRank: "pagerank", Degree: "degree",
		Eigenvector: "eigenvector", Closeness: "closeness",
		Metric(99): "unknown",
	}
	for m, want := range cases {
		if m.String() != want {
			t.Errorf("%d.String() = %q, want %q", m, m.String(), want)
		}
	}
	if len(AllMetrics()) != 4 {
		t.Fatal("AllMetrics incomplete")
	}
}

func TestDegreeScores(t *testing.T) {
	g := graph.Star(5)
	s := Scores(g, Degree, Options{})
	if s[0] != 1 {
		t.Fatalf("hub degree centrality = %v", s[0])
	}
	for v := 1; v < 5; v++ {
		if math.Abs(s[v]-0.25) > 1e-12 {
			t.Fatalf("leaf centrality = %v", s[v])
		}
	}
	// Single vertex: all zeros, no panic.
	if s := Scores(graph.NewBuilder(1).Build(), Degree, Options{}); s[0] != 0 {
		t.Fatal("singleton degree centrality should be 0")
	}
}

func TestEigenvectorStarHub(t *testing.T) {
	g := graph.Star(8)
	s := Scores(g, Eigenvector, Options{})
	for v := 1; v < 8; v++ {
		if s[0] <= s[v] {
			t.Fatalf("hub eigenvector score %v not above leaf %v", s[0], s[v])
		}
	}
	// Scores are L2-normalized.
	norm := 0.0
	for _, x := range s {
		norm += float64(x * x)
	}
	if math.Abs(norm-1) > 1e-9 {
		t.Fatalf("norm = %v", norm)
	}
}

func TestEigenvectorEdgelessGraph(t *testing.T) {
	s := Scores(graph.NewBuilder(4).Build(), Eigenvector, Options{})
	for _, x := range s {
		if x != 0 {
			t.Fatal("edgeless eigenvector scores should be zero")
		}
	}
}

func TestEigenvectorUniformOnRegular(t *testing.T) {
	s := Scores(graph.Ring(10), Eigenvector, Options{})
	for v := 1; v < 10; v++ {
		if math.Abs(s[v]-s[0]) > 1e-9 {
			t.Fatalf("ring eigenvector not uniform: %v vs %v", s[v], s[0])
		}
	}
}

func TestClosenessPathCenter(t *testing.T) {
	g := graph.Path(5)
	s := Scores(g, Closeness, Options{})
	// Center (vertex 2) minimizes total distance.
	for v := 0; v < 5; v++ {
		if v != 2 && s[2] <= s[v] {
			t.Fatalf("center closeness %v not above vertex %d's %v", s[2], v, s[v])
		}
	}
	// Path ends: distances 1+2+3+4=10, r=5 → C = (4/4)*(4/10) = 0.4.
	if math.Abs(s[0]-0.4) > 1e-12 {
		t.Fatalf("end closeness = %v, want 0.4", s[0])
	}
}

func TestClosenessDisconnected(t *testing.T) {
	g := graph.Disjoint(graph.Complete(3), graph.NewBuilder(2).Build())
	s := Scores(g, Closeness, Options{})
	// K3 members: r=3, total=2, n=5 → (2/4)*(2/2) = 0.5.
	for v := 0; v < 3; v++ {
		if math.Abs(s[v]-0.5) > 1e-12 {
			t.Fatalf("K3 closeness = %v", s[v])
		}
	}
	for v := 3; v < 5; v++ {
		if s[v] != 0 {
			t.Fatalf("isolated closeness = %v", s[v])
		}
	}
}

func TestRanksArePermutationsForAllMetrics(t *testing.T) {
	f := func(seed uint64) bool {
		rng := hdc.NewRNG(seed)
		g := graph.ErdosRenyi(20, 0.2, rng)
		for _, m := range AllMetrics() {
			r := Ranks(g, m, Options{})
			seen := make([]bool, len(r))
			for _, v := range r {
				if v < 0 || v >= len(r) || seen[v] {
					return false
				}
				seen[v] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestPageRankDelegation(t *testing.T) {
	g := graph.BarabasiAlbert(25, 2, hdc.NewRNG(1))
	a := Ranks(g, PageRank, Options{})
	b := pagerank.Ranks(g, pagerank.Options{})
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("PageRank metric does not delegate to package pagerank")
		}
	}
}

func TestDegreeRankMostCentralIsMaxDegree(t *testing.T) {
	g := graph.BarabasiAlbert(30, 2, hdc.NewRNG(2))
	r := Ranks(g, Degree, Options{})
	var top int
	for v, rank := range r {
		if rank == 0 {
			top = v
		}
	}
	if g.Degree(top) != g.MaxDegree() {
		t.Fatalf("rank-0 vertex degree %d, max %d", g.Degree(top), g.MaxDegree())
	}
}

func TestRanksDeterministicTieBreak(t *testing.T) {
	// Ring: all metrics tie everywhere; ranks must equal vertex ids.
	g := graph.Ring(6)
	for _, m := range AllMetrics() {
		r := Ranks(g, m, Options{})
		for v, rank := range r {
			if rank != v {
				t.Fatalf("%s: ring rank[%d] = %d", m, v, rank)
			}
		}
	}
}

func TestMetricsDisagreeWhereTheyShould(t *testing.T) {
	// A "kite" shape: degree and closeness/eigenvector famously order
	// some vertices differently; at minimum, the metrics must all be
	// computable and give the hub of a star rank 0.
	g := graph.Star(7)
	for _, m := range AllMetrics() {
		if r := Ranks(g, m, Options{}); r[0] != 0 {
			t.Fatalf("%s: star hub rank = %d", m, r[0])
		}
	}
}

func TestRanksIntoMatchesRanksAllMetrics(t *testing.T) {
	rng := hdc.NewRNG(31)
	var s Scratch
	var dst []int
	for trial := 0; trial < 12; trial++ {
		var g *graph.Graph
		switch trial % 3 {
		case 0:
			g = graph.ErdosRenyi(6+trial*6, 0.12, rng)
		case 1:
			g = graph.Star(5 + trial)
		default:
			g = graph.Disjoint(graph.Ring(4+trial), graph.Path(3+trial))
		}
		for _, m := range AllMetrics() {
			want := Ranks(g, m, Options{})
			dst = RanksInto(g, m, Options{}, dst, &s)
			for v := range want {
				if dst[v] != want[v] {
					t.Fatalf("trial %d metric %s: rank[%d] = %d, want %d", trial, m, v, dst[v], want[v])
				}
			}
		}
	}
}

func TestScoresIntoMatchesScoresAllMetrics(t *testing.T) {
	rng := hdc.NewRNG(32)
	var s Scratch
	for trial := 0; trial < 8; trial++ {
		g := graph.ErdosRenyi(10+trial*9, 0.1, rng)
		for _, m := range AllMetrics() {
			want := Scores(g, m, Options{})
			got := ScoresInto(g, m, Options{}, &s)
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("trial %d metric %s: score[%d] = %v, want %v", trial, m, v, got[v], want[v])
				}
			}
		}
	}
}

func TestRanksIntoAllocationFreeAllMetrics(t *testing.T) {
	g := graph.ErdosRenyi(80, 0.08, hdc.NewRNG(33))
	for _, m := range AllMetrics() {
		var s Scratch
		dst := RanksInto(g, m, Options{}, nil, &s) // warm the buffers
		allocs := testing.AllocsPerRun(20, func() {
			dst = RanksInto(g, m, Options{}, dst, &s)
		})
		if allocs != 0 {
			t.Fatalf("metric %s: RanksInto allocated %v times per run, want 0", m, allocs)
		}
	}
}

func TestIntoVariantsOutOfRangeMetricFallsBackToPageRank(t *testing.T) {
	// Serialized configs can carry unvalidated metric values; the Into
	// variants must route them exactly like Scores/Ranks do (PageRank
	// fallback), not to some other metric.
	g := graph.ErdosRenyi(25, 0.15, hdc.NewRNG(34))
	bogus := Metric(99)
	var s Scratch
	wantS := Scores(g, bogus, Options{})
	gotS := ScoresInto(g, bogus, Options{}, &s)
	for v := range wantS {
		if gotS[v] != wantS[v] {
			t.Fatalf("score[%d] = %v, want %v", v, gotS[v], wantS[v])
		}
	}
	wantR := Ranks(g, bogus, Options{})
	gotR := RanksInto(g, bogus, Options{}, nil, &s)
	for v := range wantR {
		if gotR[v] != wantR[v] {
			t.Fatalf("rank[%d] = %d, want %d", v, gotR[v], wantR[v])
		}
	}
}
