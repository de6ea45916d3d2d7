package pagerank

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"graphhd/internal/graph"
	"graphhd/internal/hdc"
)

// forEachKernelTier runs fn under every kernel tier this CPU supports,
// restoring the active tier afterwards.
func forEachKernelTier(t *testing.T, fn func(t *testing.T, tier hdc.KernelTier)) {
	t.Helper()
	prev := hdc.ActiveKernel()
	defer hdc.SetKernel(prev)
	for _, tier := range hdc.SupportedKernels() {
		if err := hdc.SetKernel(tier); err != nil {
			t.Fatal(err)
		}
		t.Run(tier.String(), func(t *testing.T) { fn(t, tier) })
	}
}

// sortedRanks is the reference permutation: the keys sorted under
// hdc.RankKey.Less as the portable tier does — by insertion up to 64
// vertices, by slices.SortFunc above — each vertex's rank its sorted
// position.
func sortedRanks(g *graph.Graph, scores []float64) []int {
	n := g.NumVertices()
	keys := make([]hdc.RankKey, n)
	for v := range keys {
		keys[v] = rankKey(scores[v], g.Degree(v), v)
	}
	if n > smallGraph {
		slices.SortFunc(keys, compareRankKeys)
	} else {
		for i := 1; i < n; i++ {
			k := keys[i]
			j := i
			for ; j > 0 && k.Less(keys[j-1]); j-- {
				keys[j] = keys[j-1]
			}
			keys[j] = k
		}
	}
	ranks := make([]int, n)
	for r, k := range keys {
		ranks[uint32(k.Tie)] = r
	}
	return ranks
}

// TestRanksFromScoresMatchInsertionSort pins the rank-count contract: for
// every n from 1 to 65, on every tier, RanksFromScoresInto returns
// exactly the sort's permutation — the insertion sort's up to 64
// vertices, where AVX-512 counts instead, and slices.SortFunc's at 65 —
// on tie-heavy scores: all equal, equal with equal degrees (a ring), +0
// beside −0, few distinct values, and PageRank's own. A NaN score falls
// back to the sort, which still gives a permutation.
func TestRanksFromScoresMatchInsertionSort(t *testing.T) {
	forEachKernelTier(t, func(t *testing.T, tier hdc.KernelTier) {
		var s Scratch
		for n := 1; n <= 65; n++ {
			rng := hdc.NewRNG(uint64(n))
			graphs := map[string]*graph.Graph{
				"ring":  graph.Ring(max(n, 3)),
				"path":  graph.Path(n),
				"er":    graph.ErdosRenyi(n, 0.15, rng),
				"empty": graph.NewBuilder(n).Build(),
			}
			for gname, g := range graphs {
				m := g.NumVertices()
				inputs := map[string][]float64{
					"equal":    make([]float64, m),
					"signed0":  make([]float64, m),
					"few":      make([]float64, m),
					"pagerank": Scores(g, Options{}),
				}
				for v := range m {
					inputs["equal"][v] = 0.25
					inputs["signed0"][v] = math.Copysign(0, float64(v%2)-0.5)
					inputs["few"][v] = float64(rng.Intn(3))
				}
				nan := slices.Clone(inputs["few"])
				nan[rng.Intn(m)] = math.NaN()
				inputs["nan"] = nan
				for iname, scores := range inputs {
					want := sortedRanks(g, scores)
					got := s.RanksFromScoresInto(g, scores, nil)
					if !slices.Equal(got, want) {
						t.Fatalf("n=%d %s/%s: ranks %v, sort %v", m, gname, iname, got, want)
					}
					if iname == "nan" {
						if sorted := slices.Sorted(slices.Values(got)); !slices.Equal(sorted, identity(m)) {
							t.Fatalf("n=%d %s: NaN ranks %v are not a permutation", m, gname, got)
						}
					}
				}
			}
		}
	})
}

// TestRanksNaNFallsBackToSort is the case a bare count gets wrong: on a
// 5-path with one NaN score the count gave [2 0 0 1 3], no permutation,
// where the insertion sort gives [1 0 2 3 4].
func TestRanksNaNFallsBackToSort(t *testing.T) {
	forEachKernelTier(t, func(t *testing.T, tier hdc.KernelTier) {
		var s Scratch
		scores := []float64{0.1, 0.3, math.NaN(), 0.2, 0.05}
		if got, want := s.RanksFromScoresInto(graph.Path(5), scores, nil), []int{1, 0, 2, 3, 4}; !slices.Equal(got, want) {
			t.Fatalf("ranks %v, want %v", got, want)
		}
	})
}

// TestRankCountIntoReports checks when hdc.RankCountInto ranks: on the
// AVX-512 tier for 1 to 64 ordered keys, and never on a NaN score, past
// 64 keys, or on a tier without the kernel — so the contract test above
// really runs the count where it claims to.
func TestRankCountIntoReports(t *testing.T) {
	forEachKernelTier(t, func(t *testing.T, tier hdc.KernelTier) {
		keys := make([]hdc.RankKey, 72)
		for v := range keys {
			keys[v] = rankKey(float64(v%5), v%3, v)
		}
		dst := make([]int, 72)
		for n := 1; n <= 65; n++ {
			want := tier == hdc.KernelAVX512 && n <= hdc.MaxRankCount
			if got := hdc.RankCountInto(keys[:n], dst); got != want {
				t.Fatalf("n=%d: RankCountInto reported %v, want %v", n, got, want)
			}
		}
		keys[3].Score = math.NaN()
		if hdc.RankCountInto(keys[:8], dst) {
			t.Fatal("RankCountInto ranked a NaN score")
		}
	})
}

func identity(n int) []int {
	id := make([]int, n)
	for i := range id {
		id[i] = i
	}
	return id
}

// BenchmarkRanksSmall times RanksFromScoresInto on PageRank scores of
// graphs of 8 to 64 vertices, the count kernel's range, per tier.
func BenchmarkRanksSmall(b *testing.B) {
	for _, n := range []int{8, 29, 64} {
		g := graph.ErdosRenyi(n, 4/float64(n), hdc.NewRNG(uint64(n)))
		scores := Scores(g, Options{})
		prev := hdc.ActiveKernel()
		for _, tier := range hdc.SupportedKernels() {
			b.Run(fmt.Sprintf("n=%d/%s", n, tier), func(b *testing.B) {
				if err := hdc.SetKernel(tier); err != nil {
					b.Fatal(err)
				}
				var s Scratch
				dst := make([]int, n)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					s.RanksFromScoresInto(g, scores, dst)
				}
			})
		}
		hdc.SetKernel(prev)
	}
}
