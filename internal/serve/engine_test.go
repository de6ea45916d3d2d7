package serve

import (
	"context"
	"errors"
	"runtime"
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
// guarantee: classifications served through the engine — one at a time
// and batched, across several segments — are bit-identical to
// Predictor.PredictAll. One slot runs a batch's segments one after another
// on the caller's goroutine; four spread them over goroutines.
func TestEnginePredictMatchesOffline(t *testing.T) {
	pred, ds := testModel(t, 2048, 1)
	want := pred.PredictAll(ds.Graphs)

	for _, workers := range []int{1, 4} {
		e, err := NewEngine(pred, Options{Workers: workers, MaxBatch: 8})
		if err != nil {
			t.Fatal(err)
		}
		for i, g := range ds.Graphs {
			got, err := e.Predict(context.Background(), g)
			if err != nil {
				t.Fatal(err)
			}
			if got != want[i] {
				t.Fatalf("workers %d, graph %d: served class %d, offline class %d", workers, i, got, want[i])
			}
		}
		got, err := e.PredictBatch(context.Background(), ds.Graphs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers %d, batch graph %d: served class %d, offline class %d", workers, i, got[i], want[i])
			}
		}
		if m := e.Metrics(); m.BatchSize.Count != uint64(len(ds.Graphs)+(len(ds.Graphs)+7)/8) {
			t.Fatalf("workers %d: %d encode calls, want %d singles and %d segments", workers, m.BatchSize.Count, len(ds.Graphs), (len(ds.Graphs)+7)/8)
		}
		e.Close()
	}
}

// TestEngineHotReloadUnderLoad hammers one engine from many goroutines
// while hot swaps alternate between two different models (different seeds
// AND different dimensions, so slots must re-bind their scratches).
// Every response must succeed and match what one of the two models would
// have predicted offline — no torn or failed request is tolerated.
func TestEngineHotReloadUnderLoad(t *testing.T) {
	predA, ds := testModel(t, 2048, 1)
	predB, _ := testModel(t, 1024, 99)
	wantA := predA.PredictAll(ds.Graphs)
	wantB := predB.PredictAll(ds.Graphs)

	e, err := NewEngine(predA, Options{Workers: 4, MaxBatch: 4})
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

// holdSlots takes every encode slot of e, so admitted calls wait for
// one and the graphs behind them count against QueueSize. The returned
// function gives the slots back; calls after the first do nothing, so a
// test can defer it and still release early.
func holdSlots(e *Engine) (release func()) {
	for range e.opts.Workers {
		<-e.slots
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			for range e.opts.Workers {
				e.slots <- struct{}{}
			}
		})
	}
}

// waitDepth waits until want graphs are admitted but not yet holding a
// slot.
func waitDepth(t *testing.T, e *Engine, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for e.depth.Load() != want {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth %d, want %d", e.depth.Load(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestEngineFirstPredictTakesPooledScratch: an engine keeps no scratch
// of its own. Once one engine of a Config has served, a second engine of
// that Config serves its first predict through the scratch the first one
// returned to their shared encoder's pool, with no heap allocation — at
// GOMAXPROCS 1, so both run on the P whose pool holds it. Then both
// engines serve at once from several goroutines, as the predictor does.
func TestEngineFirstPredictTakesPooledScratch(t *testing.T) {
	pred, ds := testModel(t, 1024, 1)
	want := pred.PredictAll(ds.Graphs)
	ctx := context.Background()
	var engines [2]*Engine
	for i := range engines {
		e, err := NewEngine(pred, Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		engines[i] = e
	}

	procs := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(procs) // on a failure before the restore below
	if _, err := engines[0].Predict(ctx, ds.Graphs[0]); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, err := engines[1].Predict(ctx, ds.Graphs[0])
	runtime.ReadMemStats(&after)
	runtime.GOMAXPROCS(procs)
	if err != nil {
		t.Fatal(err)
	}
	if got != want[0] {
		t.Fatalf("second engine's first predict: class %d, want %d", got, want[0])
	}
	// The race detector drops pool puts at random.
	if n := after.Mallocs - before.Mallocs; n != 0 && !raceEnabled {
		t.Fatalf("second engine's first predict made %d heap allocations, want 0", n)
	}

	var wg sync.WaitGroup
	for c := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e := engines[c%2]
			for i := c; i < len(ds.Graphs); i += 4 {
				if got, err := e.Predict(ctx, ds.Graphs[i]); err != nil || got != want[i] {
					t.Errorf("engine %d, graph %d: class %d (%v), want %d", c%2, i, got, err, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestEngineBackpressure holds every encode slot, fills the admission
// bound with requests waiting for one, and checks that further requests
// are rejected with ErrOverloaded; once the slots come back, every
// admitted request completes.
func TestEngineBackpressure(t *testing.T) {
	pred, ds := testModel(t, 1024, 1)
	e, err := NewEngine(pred, Options{Workers: 2, MaxBatch: 4, QueueSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	release := holdSlots(e)
	defer release() // runs before Close if the test fails early

	type res struct {
		i, class int
		err      error
	}
	results := make(chan res, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			c, err := e.Predict(context.Background(), ds.Graphs[i])
			results <- res{i, c, err}
		}(i)
	}
	waitDepth(t, e, 2)
	if m := e.Metrics(); m.QueueDepth != 2 || m.InFlight != 2 {
		t.Fatalf("metrics queue depth %d, in flight %d, want 2 and 2", m.QueueDepth, m.InFlight)
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

	release()
	want := pred.PredictAll(ds.Graphs[:2])
	for i := 0; i < 2; i++ {
		r := <-results
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.class != want[r.i] {
			t.Fatalf("graph %d: drained class %d, want %d", r.i, r.class, want[r.i])
		}
	}
	if m := e.Metrics(); m.QueueDepth != 0 || m.InFlight != 0 || m.Processed != 2 {
		t.Fatalf("after drain: queue depth %d, in flight %d, processed %d", m.QueueDepth, m.InFlight, m.Processed)
	}
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
	e, err := NewEngine(pred, Options{Workers: 1, QueueSize: 4})
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
	// Closed is checked before size: a batch past QueueSize is refused as
	// closed (503), not as overload (429), and counts no rejection.
	if _, err := e.PredictBatch(context.Background(), ds.Graphs[:5]); !errors.Is(err, ErrClosed) {
		t.Fatalf("after close (oversized batch): got %v, want ErrClosed", err)
	}
	if m := e.Metrics(); m.Rejected != 0 {
		t.Fatalf("closed engine counted %d rejections, want 0", m.Rejected)
	}
	e.Close() // idempotent
}

// TestEngineCloseWaitsForInFlight: Close returns only after an admitted
// call — waiting for, then holding, the engine's only slot — completes;
// that call succeeds; and calls after Close fail at once with ErrClosed,
// even with every slot held.
func TestEngineCloseWaitsForInFlight(t *testing.T) {
	pred, ds := testModel(t, 1024, 1)
	want := pred.PredictAll(ds.Graphs[:1])[0]
	e, err := NewEngine(pred, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	release := holdSlots(e)
	defer release()

	type res struct {
		class int
		err   error
	}
	inflight := make(chan res, 1)
	go func() {
		c, err := e.Predict(context.Background(), ds.Graphs[0])
		inflight <- res{c, err}
	}()
	waitDepth(t, e, 1)

	closed := make(chan struct{})
	go func() {
		e.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while an admitted call was still waiting for its slot")
	case <-time.After(50 * time.Millisecond):
	}

	release()
	r := <-inflight
	if r.err != nil {
		t.Fatalf("in-flight call failed across Close: %v", r.err)
	}
	if r.class != want {
		t.Fatalf("in-flight call: class %d, want %d", r.class, want)
	}
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the in-flight call completed")
	}
	if m := e.Metrics(); m.AcceptedGraphs != 1 || m.Processed != 1 || m.Requests != 1 {
		t.Fatalf("accepted %d, processed %d, requests %d, want 1 each", m.AcceptedGraphs, m.Processed, m.Requests)
	}

	// With the slot held again, a call that got past admission would
	// block; a closed engine must refuse both kinds at once.
	defer holdSlots(e)()
	refused := make(chan error, 2)
	go func() {
		_, err := e.Predict(context.Background(), ds.Graphs[0])
		refused <- err
		refused <- e.PredictBatchInto(context.Background(), ds.Graphs[:3], make([]int, 3))
	}()
	for i := 0; i < 2; i++ {
		select {
		case err := <-refused:
			if !errors.Is(err, ErrClosed) {
				t.Fatalf("call %d after Close: got %v, want ErrClosed", i, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("call %d after Close blocked instead of failing", i)
		}
	}
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
	e, err := NewEngine(pred, Options{Workers: 2, MaxBatch: 8})
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
	e, err := NewEngine(pred, Options{Workers: 2, MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	// The router must add nothing to the engine's zero, also in front of
	// a model with an (idle) online trainer attached.
	m, _ := trainableModel(t, 2048, false)
	reg := NewRegistry(RegistryOptions{Engine: Options{Workers: 2, MaxBatch: 8}})
	defer reg.Close()
	if err := reg.Load("default", m.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.AttachTrainer("default", m, TrainerOptions{}); err != nil {
		t.Fatal(err)
	}
	rt := NewRouter(reg, RouterOptions{})
	g := ds.Graphs[0]
	batch := ds.Graphs[:8]
	out := make([]int, len(batch))
	ctx := context.Background()
	for _, c := range []struct {
		name string
		run  func() error
	}{
		{"Engine.Predict", func() error { _, err := e.Predict(ctx, g); return err }},
		{"Router.Predict", func() error { _, err := rt.Predict(ctx, DefaultTenant, "", g); return err }},
		{"Router.PredictBatchInto", func() error { return rt.PredictBatchInto(ctx, DefaultTenant, "", batch, out) }},
	} {
		for i := 0; i < 50; i++ { // warm pools, scratches, histogram ranges
			if err := c.run(); err != nil {
				t.Fatal(err)
			}
		}
		if allocs := testing.AllocsPerRun(200, func() {
			if err := c.run(); err != nil {
				t.Fatal(err)
			}
		}); allocs > 0 {
			t.Errorf("%s allocated %v times per run, want 0", c.name, allocs)
		}
	}
}
