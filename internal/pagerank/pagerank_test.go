package pagerank

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"graphhd/internal/dataset"
	"graphhd/internal/graph"
	"graphhd/internal/hdc"
)

func TestScoresSumToOne(t *testing.T) {
	f := func(seed uint64) bool {
		rng := hdc.NewRNG(seed)
		g := graph.ErdosRenyi(30, 0.1, rng)
		s := Scores(g, Options{})
		sum := 0.0
		for _, v := range s {
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestScoresSumToOneWithDanglingVertices(t *testing.T) {
	// A path plus isolated vertices exercises the dangling-mass path.
	g := graph.Disjoint(graph.Path(4), graph.NewBuilder(3).Build())
	s := Scores(g, Options{})
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("sum = %v", sum)
	}
}

func TestScoresEmptyGraph(t *testing.T) {
	if s := Scores(graph.NewBuilder(0).Build(), Options{}); s != nil {
		t.Fatalf("scores of empty graph = %v", s)
	}
}

func TestScoresUniformOnSymmetricGraphs(t *testing.T) {
	for _, g := range []*graph.Graph{graph.Ring(8), graph.Complete(5)} {
		s := Scores(g, Options{})
		for i := 1; i < len(s); i++ {
			if math.Abs(s[i]-s[0]) > 1e-12 {
				t.Fatalf("%v: scores not uniform: %v", g, s)
			}
		}
	}
}

func TestStarHubDominates(t *testing.T) {
	g := graph.Star(10)
	s := Scores(g, Options{})
	for v := 1; v < 10; v++ {
		if s[0] <= s[v] {
			t.Fatalf("hub score %f not above leaf %f", s[0], s[v])
		}
	}
	r := Ranks(g, Options{})
	if r[0] != 0 {
		t.Fatalf("hub rank = %d, want 0", r[0])
	}
}

func TestPathCenterOutranksEnds(t *testing.T) {
	g := graph.Path(5)
	s := Scores(g, Options{})
	if s[2] <= s[0] || s[2] <= s[4] {
		t.Fatalf("center %f not above ends %f %f", s[2], s[0], s[4])
	}
	r := Ranks(g, Options{})
	if r[2] != 0 {
		t.Fatalf("center rank = %d", r[2])
	}
}

func TestRanksArePermutation(t *testing.T) {
	f := func(seed uint64) bool {
		rng := hdc.NewRNG(seed)
		g := graph.ErdosRenyi(25, 0.15, rng)
		r := Ranks(g, Options{})
		seen := make([]bool, len(r))
		for _, v := range r {
			if v < 0 || v >= len(r) || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestRanksDeterministic(t *testing.T) {
	g := graph.ErdosRenyi(40, 0.1, hdc.NewRNG(5))
	a := Ranks(g, Options{})
	b := Ranks(g, Options{})
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("ranks not deterministic")
		}
	}
}

func TestRanksTieBreakByVertexID(t *testing.T) {
	// On a ring all scores and degrees tie, so ranks must equal ids.
	r := Ranks(graph.Ring(6), Options{})
	for v, rank := range r {
		if rank != v {
			t.Fatalf("ring rank[%d] = %d", v, rank)
		}
	}
}

func TestRanksIsomorphismInvariantUpToTies(t *testing.T) {
	// Relabeling a graph with all-distinct scores permutes ranks the same
	// way as the vertices.
	g := graph.BarabasiAlbert(30, 2, hdc.NewRNG(6))
	r := Ranks(g, Options{})
	perm := hdc.NewRNG(7).Perm(30)
	h := graph.Relabel(g, perm)
	rh := Ranks(h, Options{})
	scores := Scores(g, Options{})
	distinct := map[float64]int{}
	for _, s := range scores {
		distinct[s]++
	}
	for v := 0; v < 30; v++ {
		if distinct[scores[v]] == 1 && rh[perm[v]] != r[v] {
			t.Fatalf("rank of untied vertex %d changed under relabeling", v)
		}
	}
}

func TestMoreIterationsConverge(t *testing.T) {
	g := graph.BarabasiAlbert(50, 3, hdc.NewRNG(8))
	a := Scores(g, Options{Iterations: 50})
	b := Scores(g, Options{Iterations: 100})
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-6 {
			t.Fatalf("scores not converged at vertex %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestDampingZeroIsUniform(t *testing.T) {
	// Damping is defaulted when 0, so test a tiny positive value instead:
	// nearly all mass teleports, scores approach uniform.
	g := graph.Star(10)
	s := Scores(g, Options{Damping: 1e-9, Iterations: 10})
	for v := 1; v < 10; v++ {
		if math.Abs(s[v]-0.1) > 1e-3 {
			t.Fatalf("near-zero damping score[%d] = %f", v, s[v])
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Damping != DefaultDamping || o.Iterations != DefaultIterations {
		t.Fatalf("defaults = %+v", o)
	}
	o2 := Options{Damping: 0.5, Iterations: 3}.withDefaults()
	if o2.Damping != 0.5 || o2.Iterations != 3 {
		t.Fatalf("explicit options overridden: %+v", o2)
	}
}

func TestScoresIntoMatchesScores(t *testing.T) {
	rng := hdc.NewRNG(11)
	var s Scratch
	for trial := 0; trial < 20; trial++ {
		g := graph.ErdosRenyi(5+trial*7, 0.08, rng)
		opts := Options{Iterations: 1 + trial%13}
		want := Scores(g, opts)
		got := ScoresInto(g, opts, &s)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d scores, want %d", trial, len(got), len(want))
		}
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("trial %d: score[%d] = %v, want %v", trial, v, got[v], want[v])
			}
		}
	}
}

func TestRanksIntoMatchesRanks(t *testing.T) {
	// The scratch path must be bit-for-bit identical to the historical
	// sort.SliceStable implementation on graphs full of score ties.
	rng := hdc.NewRNG(12)
	var s Scratch
	var dst []int
	for trial := 0; trial < 30; trial++ {
		var g *graph.Graph
		switch trial % 3 {
		case 0:
			g = graph.ErdosRenyi(4+trial*5, 0.1, rng)
		case 1:
			g = graph.Complete(3 + trial) // all scores tie
		default:
			g = graph.Ring(3 + trial*2) // all scores tie
		}
		want := Ranks(g, Options{})
		dst = RanksInto(g, Options{}, dst, &s)
		if len(dst) != len(want) {
			t.Fatalf("trial %d: %d ranks, want %d", trial, len(dst), len(want))
		}
		for v := range want {
			if dst[v] != want[v] {
				t.Fatalf("trial %d: rank[%d] = %d, want %d", trial, v, dst[v], want[v])
			}
		}
	}
}

func TestRanksIntoAllocationFree(t *testing.T) {
	g := graph.ErdosRenyi(200, 0.05, hdc.NewRNG(13))
	var s Scratch
	dst := RanksInto(g, Options{}, nil, &s) // warm the buffers
	allocs := testing.AllocsPerRun(50, func() {
		dst = RanksInto(g, Options{}, dst, &s)
	})
	if allocs != 0 {
		t.Fatalf("RanksInto allocated %v times per run, want 0", allocs)
	}
}

func TestScoresIntoResultStableAcrossGraphs(t *testing.T) {
	// The returned slice must always be s.scores regardless of iteration
	// parity, so callers can hold it across calls.
	rng := hdc.NewRNG(14)
	var s Scratch
	g := graph.ErdosRenyi(40, 0.1, rng)
	even := ScoresInto(g, Options{Iterations: 4}, &s)
	odd := ScoresInto(g, Options{Iterations: 5}, &s)
	if &even[0] != &odd[0] {
		t.Fatal("ScoresInto returned different backing arrays for even and odd iteration counts")
	}
}

// pushScores is the power loop as ScoresInto ran it before it walked the
// edge list: every vertex pushes its share cur[v]·d/deg(v) along its
// sorted adjacency list. It is the oracle the edge-order loop must match
// with float64 ==.
func pushScores(g *graph.Graph, opts Options) []float64 {
	opts = opts.withDefaults()
	n := g.NumVertices()
	if n == 0 {
		return nil
	}
	cur, next := make([]float64, n), make([]float64, n)
	inv := 1 / float64(n)
	for i := range cur {
		cur[i] = inv
	}
	d := opts.Damping
	for it := 0; it < opts.Iterations; it++ {
		dangling := 0.0
		for v := 0; v < n; v++ {
			if g.Degree(v) == 0 {
				dangling += cur[v]
			}
		}
		base := (1-d)*inv + d*dangling*inv
		for v := range next {
			next[v] = base
		}
		for v := 0; v < n; v++ {
			if deg := g.Degree(v); deg > 0 {
				share := cur[v] * (d / float64(deg))
				for _, w := range g.Neighbors(v) {
					next[w] += share
				}
			}
		}
		cur, next = next, cur
	}
	return cur
}

// referenceOrder sorts g's vertices by the shared centrality rule — score
// descending, then degree descending, then vertex id ascending — with a
// stable sort and a comparator that reads every degree afresh. It is the
// oracle the key sort in RanksFromScoresInto must match.
func referenceOrder(g *graph.Graph, scores []float64) []int {
	order := make([]int, len(scores))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		u, v := order[i], order[j]
		if scores[u] != scores[v] {
			return scores[u] > scores[v]
		}
		if du, dv := g.Degree(u), g.Degree(v); du != dv {
			return du > dv
		}
		return u < v
	})
	return order
}

// TestScoresMatchPushOracle requires the edge-order power loop to give
// exactly the push loop's float64 scores, and RanksInto the ranks those
// scores sort to, on all six datasets and on shapes with many ties or
// dangling vertices, at iteration counts of both parities. It holds
// because Edges() is sorted by (U, V) with U < V, so every vertex adds
// its neighbours' shares in ascending order, as the push loop does.
func TestScoresMatchPushOracle(t *testing.T) {
	sets := map[string][]*graph.Graph{
		"shapes": {
			graph.Star(9),
			graph.Complete(7),
			graph.Disjoint(graph.Path(4), graph.NewBuilder(3).Build(), graph.Star(5)),
			graph.NewBuilder(5).Build(), // all dangling
			graph.NewBuilder(1).Build(),
			graph.NewBuilder(0).Build(),
			graph.BarabasiAlbert(60, 3, hdc.NewRNG(21)),
		},
	}
	for _, name := range dataset.Names() {
		count := 150
		if name == "DD" { // DD graphs are ~25× larger than the rest
			count = 30
		}
		ds, err := dataset.Generate(name, dataset.Options{Seed: 9, GraphCount: count})
		if err != nil {
			t.Fatal(err)
		}
		sets[name] = ds.Graphs
	}
	var s Scratch
	var dst []int
	for name, gs := range sets {
		for _, iters := range []int{1, 2, 3, 10} {
			for _, damping := range []float64{DefaultDamping, 0.5} {
				opts := Options{Damping: damping, Iterations: iters}
				for gi, g := range gs {
					want := pushScores(g, opts)
					got := ScoresInto(g, opts, &s)
					if len(got) != len(want) {
						t.Fatalf("%s graph %d, %+v: %d scores, want %d", name, gi, opts, len(got), len(want))
					}
					for v := range want {
						if got[v] != want[v] {
							t.Fatalf("%s graph %d, %+v: score[%d] = %v, push oracle %v", name, gi, opts, v, got[v], want[v])
						}
					}
					order := referenceOrder(g, want)
					dst = RanksInto(g, opts, dst, &s)
					for r, v := range order {
						if dst[v] != r {
							t.Fatalf("%s graph %d, %+v: rank[%d] = %d, push oracle %d", name, gi, opts, v, dst[v], r)
						}
					}
				}
			}
		}
	}
}
