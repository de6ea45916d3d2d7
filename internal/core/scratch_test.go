package core

import (
	"runtime"
	"sync"
	"testing"

	"graphhd/internal/dataset"
	"graphhd/internal/graph"
	"graphhd/internal/hdc"
)

// TestScratchEncodeMatchesReferenceAllDatasets pins the tentpole guarantee
// of the scratch refactor: on every synthetic Table-I dataset, encoding
// through a reused EncoderScratch is bit-for-bit identical to the slow
// reference pipeline and to the allocating APIs, packed and bipolar.
func TestScratchEncodeMatchesReferenceAllDatasets(t *testing.T) {
	for _, name := range dataset.Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			count := 12
			if name == "DD" { // DD graphs are ~25× larger than the rest
				count = 4
			}
			ds, err := dataset.Generate(name, dataset.Options{Seed: 9, GraphCount: count})
			if err != nil {
				t.Fatal(err)
			}
			cfg := testConfig()
			cfg.Dimension = 1024
			enc := MustNewEncoder(cfg)
			s := enc.NewScratch()
			for i, g := range ds.Graphs {
				want := enc.encodeGraphSlow(g)
				if !s.EncodeGraphPacked(g).Equal(want.PackBinary()) {
					t.Fatalf("graph %d: scratch packed encode differs from reference", i)
				}
				if !enc.EncodeGraph(g).Equal(want) {
					t.Fatalf("graph %d: pooled bipolar encode differs from reference", i)
				}
			}
		})
	}
}

// TestScratchRanksMatchesRanks checks the scratch rank path against the
// allocating one, including reuse across graphs of shrinking size (stale
// buffer contents must never leak).
func TestScratchRanksMatchesRanks(t *testing.T) {
	enc := MustNewEncoder(testConfig())
	s := enc.NewScratch()
	rng := hdc.NewRNG(61)
	sizes := []int{60, 9, 33, 2, 50, 17}
	for trial, n := range sizes {
		g := graph.ErdosRenyi(n, 0.15, rng)
		want := enc.Ranks(g)
		got := s.Ranks(g)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d ranks, want %d", trial, len(got), len(want))
		}
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("trial %d: rank[%d] = %d, want %d", trial, v, got[v], want[v])
			}
		}
	}
}

// TestScratchEncodeAllocationFree is the acceptance criterion of the
// refactor: steady-state unlabeled-graph encoding through a scratch
// performs zero heap allocations (previously ≥14 from the fresh BitCounter
// and the PageRank sort).
func TestScratchEncodeAllocationFree(t *testing.T) {
	enc := MustNewEncoder(testConfig())
	g := graph.ErdosRenyi(60, 0.1, hdc.NewRNG(62))
	s := enc.NewScratch()
	s.EncodeGraphPacked(g) // warm buffers and the packed basis table
	if allocs := testing.AllocsPerRun(50, func() { s.EncodeGraphPacked(g) }); allocs != 0 {
		t.Fatalf("EncodeGraphPacked allocated %v times per run, want 0", allocs)
	}
}

// TestPredictorPredictAllocationFree extends the guarantee end to end:
// PageRank, encode and packed query of a single graph allocate nothing in
// steady state.
func TestPredictorPredictAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under the race detector, so the pooled path allocates")
	}
	gs, ys := twoClassDataset(10, 63)
	m, err := Train(testConfig(), gs, ys)
	if err != nil {
		t.Fatal(err)
	}
	pred := m.Snapshot()
	g := gs[0]
	pred.Predict(g) // warm the pooled scratch
	if allocs := testing.AllocsPerRun(50, func() { pred.Predict(g) }); allocs != 0 {
		t.Fatalf("Predictor.Predict allocated %v times per run, want 0", allocs)
	}
}

// TestScratchConcurrentFitPredict exercises the pooled-scratch path under
// contention (run with -race in CI): concurrent Fit, batch PredictAll and
// single predicts across goroutines must stay data-race-free and
// bit-identical to a sequential reference.
func TestScratchConcurrentFitPredict(t *testing.T) {
	rng := hdc.NewRNG(64)
	gs := make([]*graph.Graph, 48)
	ys := make([]int, len(gs))
	for i := range gs {
		if i%2 == 0 {
			gs[i] = graph.ErdosRenyi(24, 0.15, rng)
		} else {
			gs[i] = graph.WattsStrogatz(24, 4, 0.1, rng)
		}
		ys[i] = i % 2
	}
	cfg := testConfig()
	ref, err := Train(cfg, gs, ys)
	if err != nil {
		t.Fatal(err)
	}
	refPred := ref.Snapshot()
	want := refPred.PredictAll(gs)

	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each goroutine trains its own model (concurrent Fit through the
			// shared pool machinery) and predicts both batch and single.
			m, err := Train(cfg, gs, ys)
			if err != nil {
				errs <- err.Error()
				return
			}
			pred := m.Snapshot()
			got := pred.PredictAll(gs)
			for i := range got {
				if got[i] != want[i] {
					errs <- "concurrent PredictAll diverged from sequential reference"
					return
				}
			}
			for i := w; i < len(gs); i += 6 {
				if pred.Predict(gs[i]) != want[i] {
					errs <- "concurrent Predict diverged from sequential reference"
					return
				}
				if ref.PredictPacked(gs[i]) != want[i] {
					errs <- "concurrent PredictPacked diverged from sequential reference"
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestScratchSharedEncoderConcurrent hammers ONE encoder's pooled
// scratches from many goroutines encoding interleaved graphs, checking
// every result against precomputed references.
func TestScratchSharedEncoderConcurrent(t *testing.T) {
	enc := MustNewEncoder(testConfig())
	rng := hdc.NewRNG(65)
	gs := make([]*graph.Graph, 40)
	want := make([]*hdc.Binary, len(gs))
	for i := range gs {
		gs[i] = graph.ErdosRenyi(10+3*i, 0.2, rng)
	}
	for i, g := range gs {
		want[i] = enc.EncodeGraphPacked(g)
	}
	var wg sync.WaitGroup
	var mismatch sync.Map
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := enc.NewScratch()
			for round := 0; round < 5; round++ {
				for i := (w + round) % len(gs); i < len(gs); i += 3 {
					if !s.EncodeGraphPacked(gs[i]).Equal(want[i]) {
						mismatch.Store(i, true)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	mismatch.Range(func(k, _ any) bool {
		t.Errorf("concurrent scratch encode mismatch on graph %v", k)
		return true
	})
}

// liveHeap returns the bytes of live heap objects after a collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestEncoderMemoryBounded: an encoder keeps nothing per label value or
// per graph shape seen. At d = 10,000, 200 labeled predicts with label
// values no graph had before keep live heap within 1 MB of the heap after
// the first, and a 2,000-vertex edgeless graph grows the heap as much as
// a 2,000-vertex path does: by the packed basis of its ranks.
func TestEncoderMemoryBounded(t *testing.T) {
	cfg := DefaultConfig()
	cfg.UseVertexLabels = true
	gs, ys := twoClassDataset(6, 71)
	for i := range gs {
		gs[i] = labeledCopy(t, gs[i], i)
	}
	m, err := Train(cfg, gs, ys)
	if err != nil {
		t.Fatal(err)
	}
	pred := m.Snapshot()
	// Copies of one graph whose every vertex carries a fresh label.
	fresh := make([]*graph.Graph, 201)
	for i := range fresh {
		b := graph.NewBuilder(gs[0].NumVertices())
		for _, e := range gs[0].Edges() {
			b.MustAddEdge(int(e.U), int(e.V))
		}
		vl := make([]int, gs[0].NumVertices())
		for v := range vl {
			vl[v] = 100 + i*len(vl) + v
		}
		if err := b.SetVertexLabels(vl); err != nil {
			t.Fatal(err)
		}
		fresh[i] = b.Build()
	}
	s := pred.Encoder().NewScratch()
	pred.PredictWith(s, fresh[0])
	before := liveHeap()
	for _, g := range fresh[1:] {
		pred.PredictWith(s, g)
	}
	if grew := liveHeap() - before; grew > 1<<20 {
		t.Errorf("200 predicts with unseen labels grew live heap by %d B, want at most 1 MiB", grew)
	}
	runtime.KeepAlive(fresh)
	runtime.KeepAlive(s)

	growth := func(g *graph.Graph) (int64, int) {
		enc := MustNewEncoder(freshConfig(DefaultConfig())) // a basis of its own
		s := enc.NewScratch()
		before := liveHeap()
		s.EncodeGraphPacked(g)
		grew := liveHeap() - before
		runtime.KeepAlive(s)
		return grew, enc.basisRanks()
	}
	const n = 2000
	pathGrew, pathBasis := growth(graph.Path(n))
	edgelessGrew, edgelessBasis := growth(edgelessGraph(t, n))
	t.Logf("%d-vertex path grew live heap by %d B, edgeless graph by %d B", n, pathGrew, edgelessGrew)
	if pathBasis != n || edgelessBasis != n {
		t.Fatalf("packed basis grew to %d vectors for the path and %d for the edgeless graph, want %d", pathBasis, edgelessBasis, n)
	}
	if edgelessGrew > pathGrew+1<<20 {
		t.Fatalf("edgeless graph grew live heap by %d B, the path by %d B", edgelessGrew, pathGrew)
	}
}
