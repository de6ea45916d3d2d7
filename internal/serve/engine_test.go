package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"graphhd/internal/core"
	"graphhd/internal/dataset"
	"graphhd/internal/graph"
)

// testModel trains a small model on a synthetic dataset and snapshots it.
func testModel(t testing.TB, dim int, seed uint64) (*core.Predictor, *graph.Dataset) {
	t.Helper()
	ds := dataset.MustGenerate("MUTAG", dataset.Options{Seed: 7, GraphCount: 48})
	cfg := core.DefaultConfig()
	cfg.Dimension = dim
	cfg.Seed = seed
	m, err := core.Train(cfg, ds.Graphs, ds.Labels)
	if err != nil {
		t.Fatal(err)
	}
	return m.Snapshot(), ds
}

// TestEnginePredictMatchesOffline is the end-to-end equivalence
// guarantee: classifications served through the micro-batching engine —
// one at a time and batched — are bit-identical to Predictor.PredictAll.
func TestEnginePredictMatchesOffline(t *testing.T) {
	pred, ds := testModel(t, 2048, 1)
	want := pred.PredictAll(ds.Graphs)

	e, err := NewEngine(pred, Options{Workers: 4, MaxBatch: 8, MaxDelay: 100 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	for i, g := range ds.Graphs {
		got, err := e.Predict(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		if got != want[i] {
			t.Fatalf("graph %d: served class %d, offline class %d", i, got, want[i])
		}
	}
	got, err := e.PredictBatch(context.Background(), ds.Graphs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("batch graph %d: served class %d, offline class %d", i, got[i], want[i])
		}
	}
}

// TestEngineHotReloadUnderLoad hammers one engine from many goroutines
// while hot swaps alternate between two different models (different seeds
// AND different dimensions, so workers must re-bind their scratches).
// Every response must succeed and match what one of the two models would
// have predicted offline — no torn or failed request is tolerated.
func TestEngineHotReloadUnderLoad(t *testing.T) {
	predA, ds := testModel(t, 2048, 1)
	predB, _ := testModel(t, 1024, 99)
	wantA := predA.PredictAll(ds.Graphs)
	wantB := predB.PredictAll(ds.Graphs)

	e, err := NewEngine(predA, Options{Workers: 4, MaxBatch: 4, MaxDelay: 50 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	const clients = 8
	const perClient = 60
	var failures atomic.Int64
	var swapWg, clientWg sync.WaitGroup
	stopSwap := make(chan struct{})
	swapWg.Add(1)
	go func() { // swapper: flip models as fast as the race detector allows
		defer swapWg.Done()
		cur := false
		for {
			select {
			case <-stopSwap:
				return
			default:
			}
			if cur {
				e.Swap(predA)
			} else {
				e.Swap(predB)
			}
			cur = !cur
			time.Sleep(100 * time.Microsecond)
		}
	}()
	clientWg.Add(clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer clientWg.Done()
			for r := 0; r < perClient; r++ {
				i := (c*perClient + r) % len(ds.Graphs)
				got, err := e.Predict(context.Background(), ds.Graphs[i])
				if err != nil {
					t.Errorf("client %d: predict failed during hot reload: %v", c, err)
					failures.Add(1)
					return
				}
				if got != wantA[i] && got != wantB[i] {
					t.Errorf("graph %d: class %d matches neither model (A=%d, B=%d)",
						i, got, wantA[i], wantB[i])
					failures.Add(1)
					return
				}
			}
		}(c)
	}
	// The swapper keeps flipping until every client finishes, so swaps
	// overlap the whole request stream.
	done := make(chan struct{})
	go func() { clientWg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("hot-reload load test timed out")
	}
	close(stopSwap)
	swapWg.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d requests failed or returned torn results during hot reload", failures.Load())
	}
	if e.Metrics().Reloads == 0 {
		t.Fatal("no reloads recorded")
	}
}

// TestEngineBackpressure fills the admission queue of an unstarted engine
// and checks that further requests are rejected with ErrOverloaded, then
// starts the engine and checks every admitted request completes.
func TestEngineBackpressure(t *testing.T) {
	pred, ds := testModel(t, 1024, 1)
	e, err := newEngine(pred, Options{Workers: 2, MaxBatch: 4, QueueSize: 2})
	if err != nil {
		t.Fatal(err)
	}

	type res struct {
		class int
		err   error
	}
	results := make(chan res, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			c, err := e.Predict(context.Background(), ds.Graphs[i])
			results <- res{c, err}
		}(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for e.depth.Load() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth %d, want 2", e.depth.Load())
		}
		time.Sleep(time.Millisecond)
	}
	if m := e.Metrics(); m.QueueDepth != 2 {
		t.Fatalf("metrics queue depth %d, want 2", m.QueueDepth)
	}

	if _, err := e.Predict(context.Background(), ds.Graphs[2]); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("overfull queue: got %v, want ErrOverloaded", err)
	}
	if err := e.PredictBatchInto(context.Background(), ds.Graphs[:1], make([]int, 1)); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("overfull queue (batch): got %v, want ErrOverloaded", err)
	}
	if m := e.Metrics(); m.Rejected != 2 {
		t.Fatalf("rejected %d, want 2", m.Rejected)
	}

	e.start()
	want := pred.PredictAll(ds.Graphs[:2])
	for i := 0; i < 2; i++ {
		r := <-results
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.class != want[0] && r.class != want[1] {
			t.Fatalf("drained class %d matches neither expected prediction %v", r.class, want)
		}
	}
	e.Close()
}

// TestEngineBatchAdmissionIsAtomic: a batch larger than the queue can
// never be admitted, and a rejected batch must not leave partial tasks
// behind.
func TestEngineBatchAdmissionIsAtomic(t *testing.T) {
	pred, ds := testModel(t, 1024, 1)
	e, err := NewEngine(pred, Options{Workers: 1, QueueSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.PredictBatch(context.Background(), ds.Graphs[:5]); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("oversized batch: got %v, want ErrOverloaded", err)
	}
	if d := e.Metrics().QueueDepth; d != 0 {
		t.Fatalf("rejected batch left queue depth %d", d)
	}
	// A batch exactly at the bound is fine.
	got, err := e.PredictBatch(context.Background(), ds.Graphs[:4])
	if err != nil {
		t.Fatal(err)
	}
	want := pred.PredictAll(ds.Graphs[:4])
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("graph %d: got %d want %d", i, got[i], want[i])
		}
	}
}

func TestEngineCloseRejectsNewRequests(t *testing.T) {
	pred, ds := testModel(t, 1024, 1)
	e, err := NewEngine(pred, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
	if _, err := e.Predict(context.Background(), ds.Graphs[0]); !errors.Is(err, ErrClosed) {
		t.Fatalf("after close: got %v, want ErrClosed", err)
	}
	if _, err := e.PredictBatch(context.Background(), ds.Graphs[:2]); !errors.Is(err, ErrClosed) {
		t.Fatalf("after close (batch): got %v, want ErrClosed", err)
	}
	e.Close() // idempotent
}

func TestEngineArgumentErrors(t *testing.T) {
	pred, ds := testModel(t, 1024, 1)
	if _, err := NewEngine(nil, Options{}); err == nil {
		t.Fatal("nil predictor accepted")
	}
	e, err := NewEngine(pred, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.Swap(nil); err == nil {
		t.Fatal("nil swap accepted")
	}
	if err := e.PredictBatchInto(context.Background(), ds.Graphs[:2], make([]int, 1)); err == nil {
		t.Fatal("mismatched out length accepted")
	}
	if err := e.PredictBatchInto(context.Background(), nil, nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Predict(ctx, ds.Graphs[0]); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ctx: got %v", err)
	}
}

// TestEngineMetrics drives known traffic through the engine and checks
// the snapshot arithmetic and the Prometheus rendering.
func TestEngineMetrics(t *testing.T) {
	pred, ds := testModel(t, 1024, 1)
	e, err := NewEngine(pred, Options{Workers: 2, MaxBatch: 8, MaxDelay: 100 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	if _, err := e.Predict(context.Background(), ds.Graphs[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := e.PredictBatch(context.Background(), ds.Graphs[:10]); err != nil {
		t.Fatal(err)
	}

	m := e.Metrics()
	if m.Requests != 2 {
		t.Fatalf("requests %d, want 2", m.Requests)
	}
	if m.Processed != 11 {
		t.Fatalf("processed %d, want 11", m.Processed)
	}
	if m.Latency.Count != 2 || m.Latency.Sum <= 0 {
		t.Fatalf("latency histogram count=%d sum=%g, want 2 observations with positive sum",
			m.Latency.Count, m.Latency.Sum)
	}
	var batched uint64
	for i, c := range m.BatchSize.Counts {
		_ = i
		batched += c
	}
	if batched == 0 {
		t.Fatal("no batches observed")
	}

	if m.QueueDepth != 0 || m.InFlight != 0 {
		t.Fatalf("queue depth %d, in flight %d after quiescence, want 0", m.QueueDepth, m.InFlight)
	}
	if m.AcceptedGraphs != m.Processed {
		t.Fatalf("accepted %d graphs, processed %d", m.AcceptedGraphs, m.Processed)
	}
	if n := e.Predictor().NumClasses(); n != 2 {
		t.Fatalf("installed model has %d classes, want 2", n)
	}
}

// TestServePredictAllocationFree is the acceptance bound: once warmed up,
// the engine + worker path adds zero heap allocations per request on top
// of whatever the front end pays to decode the request.
func TestServePredictAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under the race detector")
	}
	pred, ds := testModel(t, 2048, 1)
	e, err := NewEngine(pred, Options{Workers: 2, MaxBatch: 8, MaxDelay: 50 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	g := ds.Graphs[0]
	ctx := context.Background()
	for i := 0; i < 50; i++ { // warm pools, scratches, histogram ranges
		if _, err := e.Predict(ctx, g); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := e.Predict(ctx, g); err != nil {
			t.Fatal(err)
		}
	}); allocs > 0 {
		t.Fatalf("Engine.Predict allocated %v times per run, want 0", allocs)
	}
}
