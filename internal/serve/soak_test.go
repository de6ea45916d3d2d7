package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestEngineSoakMixedLoad is the serving soak test: sustained mixed
// single/batch load from many clients, concurrent hot swaps between
// models of different dimensions, and induced overload through a small
// queue — the regime where admission accounting, batch segmentation, and
// slot scratch re-binding all interleave. It asserts the accounting the
// metrics promise:
//
//	accepted == processed with zero in-flight at quiesce, and
//	in-flight bounded by the engine's physical capacity under load,
//
// plus client-side bookkeeping (every admitted graph got exactly one
// valid answer, every refused call got ErrOverloaded, nothing else ever
// failed across swaps). Run under -race in CI, where it doubles as the
// concurrency audit of the encode slots and the batch fan-out.
func TestEngineSoakMixedLoad(t *testing.T) {
	predA, ds := testModel(t, 1024, 1)
	predB, _ := testModel(t, 512, 99) // different dimension: swaps re-bind scratches
	e, err := NewEngine(predA, Options{
		Workers:  4,
		MaxBatch: 8,
		// Small enough that the client fleet overruns it regularly.
		QueueSize: 64,
	})
	if err != nil {
		t.Fatal(err)
	}

	duration := 800 * time.Millisecond
	if testing.Short() {
		duration = 150 * time.Millisecond
	}
	deadline := time.After(duration)
	stop := make(chan struct{})
	go func() {
		<-deadline
		close(stop)
	}()

	// Swapper: flip between the two models as fast as the scheduler allows.
	var swaps atomic.Uint64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			next := predA
			if i%2 == 1 {
				next = predB
			}
			if err := e.Swap(next); err != nil {
				t.Errorf("swap: %v", err)
				return
			}
			swaps.Add(1)
			// Throttle: a spinning swapper would monopolize a core without
			// adding coverage; thousands of swaps per soak are plenty.
			time.Sleep(50 * time.Microsecond)
		}
	}()

	var graphsOK, callsOK, callsRejected atomic.Uint64
	var failures atomic.Uint64
	ctx := context.Background()
	classValid := func(c int) bool {
		// Classes must come from whichever model answered; both are
		// two-class MUTAG models here, but guard generically.
		return c >= 0 && (c < predA.NumClasses() || c < predB.NumClasses())
	}

	client := func(batch int) {
		defer wg.Done()
		i := 0
		out := make([]int, batch)
		// Repeat the dataset so batches larger than it (including the
		// always-rejected one above QueueSize) can be formed.
		pool := ds.Graphs
		for len(pool) < batch+len(ds.Graphs) {
			pool = append(pool, ds.Graphs...)
		}
		for {
			select {
			case <-stop:
				return
			default:
			}
			if batch == 1 {
				class, err := e.Predict(ctx, ds.Graphs[i%len(ds.Graphs)])
				switch {
				case err == nil:
					if !classValid(class) {
						t.Errorf("invalid class %d", class)
					}
					graphsOK.Add(1)
					callsOK.Add(1)
				case errors.Is(err, ErrOverloaded):
					callsRejected.Add(1)
				default:
					failures.Add(1)
					t.Errorf("predict failed: %v", err)
				}
			} else {
				lo := i % len(ds.Graphs)
				graphs := pool[lo : lo+batch]
				err := e.PredictBatchInto(ctx, graphs, out[:batch])
				switch {
				case err == nil:
					for _, c := range out[:batch] {
						if !classValid(c) {
							t.Errorf("invalid class %d", c)
						}
					}
					graphsOK.Add(uint64(batch))
					callsOK.Add(1)
				case errors.Is(err, ErrOverloaded):
					callsRejected.Add(1)
				default:
					failures.Add(1)
					t.Errorf("predict batch failed: %v", err)
				}
			}
			i++
			// Spot-check in-flight occupancy under load against what
			// the slots allow: at most QueueSize graphs wait for a slot
			// and each of the Workers slots encodes at most MaxBatch.
			// accepted is loaded before processed, so the reading can
			// only under-count the true occupancy; a lost
			// processed-increment or a double-counted admission still
			// grows it past the bound.
			if i%64 == 0 {
				accepted := int64(e.m.accepted.Load())
				processed := int64(e.m.processed.Load())
				opts := e.Options()
				limit := int64(opts.QueueSize + opts.Workers*opts.MaxBatch)
				if accepted-processed > limit {
					t.Errorf("in-flight graphs %d exceed engine capacity %d (accepted %d, processed %d)",
						accepted-processed, limit, accepted, processed)
				}
			}
		}
	}

	// Mixed fleet: single-predict clients plus batch clients of several
	// sizes, including batches larger than MaxBatch (segmented), larger
	// than the queue can sometimes absorb, and one — 65 against a queue of
	// 64 — that admission control must refuse every time.
	for _, batch := range []int{1, 1, 1, 1, 3, 8, 17, 32, 65} {
		wg.Add(1)
		go client(batch)
	}
	wg.Wait()
	e.Close() // drains every admitted request

	m := e.Metrics()
	if failures.Load() != 0 {
		t.Fatalf("%d requests failed in flight across %d swaps", failures.Load(), swaps.Load())
	}
	if m.AcceptedGraphs != m.Processed || m.InFlight != 0 || m.QueueDepth != 0 {
		t.Fatalf("engine did not quiesce clean: accepted %d, processed %d, inflight %d, depth %d",
			m.AcceptedGraphs, m.Processed, m.InFlight, m.QueueDepth)
	}
	if m.AcceptedGraphs != graphsOK.Load() {
		t.Fatalf("accepted %d graphs but clients saw %d answered", m.AcceptedGraphs, graphsOK.Load())
	}
	if m.Requests != callsOK.Load() {
		t.Fatalf("requests %d but clients completed %d calls", m.Requests, callsOK.Load())
	}
	if m.Rejected != callsRejected.Load() {
		t.Fatalf("rejected %d but clients saw %d overloads", m.Rejected, callsRejected.Load())
	}
	if callsRejected.Load() == 0 {
		t.Fatal("overload was never induced")
	}
	if swaps.Load() == 0 {
		t.Fatal("no hot swaps happened during the soak")
	}
	t.Logf("soak: %d graphs over %d calls, %d rejected calls, %d swaps",
		m.Processed, m.Requests, m.Rejected, swaps.Load())
}
