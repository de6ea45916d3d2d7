// Package serve is the online-inference subsystem. It is layered:
//
//	Registry (named models, LRU by packed bytes, atomic hot swap)
//	  └─ Router (model lookup, per-tenant quotas)
//	       └─ Engine: one resident model (admission, encode slots)
//
// An Engine is one resident model, and only a Registry builds one, in
// Load or LoadFile. It holds what that model owns — its name, LRU stamp,
// packed charge, artifact path and trainer, the atomic pointer to its
// serving core.Predictor, its encode slots, queue depth, close state and
// counters — and reads the rest from its registry: the clock, the one
// trace ring and the options. It runs no background goroutine: a single
// graph, and a batch of up to MaxBatch graphs, is encoded on the
// goroutine that made the request. The Engine owns the three serving
// concerns the batch pipeline has no notion of:
//
//   - Encode slots. Workers slots bound how many encode calls run at
//     once. A single graph takes a slot and is encoded inline, with no
//     hand-off. A batch call of up to MaxBatch graphs runs inline too; a
//     larger one is split into MaxBatch-sized segments spread over at
//     most Workers goroutines, and every segment takes its own slot for
//     one batch encode. The engine keeps no scratch: each encode call
//     checks one out of its model's encoder pool, which every model of
//     that configuration shares.
//   - Hot model swap. The predictor sits behind an atomic pointer;
//     Registry.Swap installs a new one with zero downtime and zero failed
//     in-flight requests. A segment loads the predictor once, after it
//     holds its slot, and encodes through that predictor's encoder, so
//     every segment is computed coherently under exactly one model.
//   - Admission control. At most QueueSize graphs may wait for a slot;
//     past that, Predict and PredictBatchInto fail fast with
//     ErrOverloaded instead of letting latency collapse (the HTTP front
//     end maps this to 429).
//
// A single predict and a one-segment batch are allocation-free in steady
// state: pooled scratches are reused across calls and results land in
// the caller's buffers. The only per-request allocations a front end pays
// are its own (e.g. JSON decode). cmd/graphhd-serve is the HTTP front
// end.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"graphhd/internal/core"
	"graphhd/internal/graph"
	"graphhd/internal/hdc"
	"graphhd/internal/parallel"
)

// Errors returned by the admission path.
var (
	// ErrOverloaded means more graphs already wait for an encode slot
	// than the engine admits; the caller should shed load (HTTP 429) or
	// retry later.
	ErrOverloaded = errors.New("serve: queue full")
	// ErrClosed means the model was evicted, or its registry closed,
	// after the request looked it up.
	ErrClosed = errors.New("serve: engine closed")
)

// Engine is one resident model serving predictions from a hot-swappable
// packed predictor; its version is Reloads()+1, 1 on load and +1 per
// swap. A Registry builds it; it is safe for concurrent use by any number
// of request goroutines.
type Engine struct {
	reg  *Registry // clock, trace ring and options
	name string

	// lastUsed is stamped, in registry-clock nanos, by every request the
	// router sends here. bytes and path are guarded by Registry.mu.
	lastUsed atomic.Int64
	bytes    int64
	path     string // artifact path for Reload; "" if loaded in-memory

	// trainer is the online learning loop attached to this model, if any.
	trainer atomic.Pointer[Trainer]

	pred atomic.Pointer[core.Predictor]

	// slots holds the idle encode slots, Workers tokens of them: a
	// segment blocks here for one and sends it back when done.
	slots chan struct{}
	depth atomic.Int64 // graphs admitted but not yet holding a slot

	// mu orders admission against close: admission joins calls under the
	// read lock, close sets closed under the write lock, so once close
	// waits on calls no call can join it.
	mu     sync.RWMutex
	closed bool
	calls  sync.WaitGroup // admitted calls not yet returned

	m metrics
}

// Predictor returns the currently installed model snapshot.
func (e *Engine) Predictor() *core.Predictor { return e.pred.Load() }

// Predict classifies one graph on the calling goroutine and returns its
// class under the model current when it took its slot. It fails fast
// with ErrOverloaded when QueueSize graphs already wait for a slot; once
// admitted, the request always completes (ctx governs admission, not
// processing, which is bounded by the graphs admitted ahead of it).
func (e *Engine) Predict(ctx context.Context, g *graph.Graph) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	enq, err := e.admit(1)
	if err != nil {
		return 0, err
	}
	defer e.calls.Done()
	gs := [1]*graph.Graph{g}
	var out [1]int
	e.run(gs[:], out[:], enq)
	e.m.observeRequest(e.reg.nanos() - enq)
	return out[0], nil
}

// PredictBatchInto classifies graphs in order into out (len(out) must
// equal len(graphs)). The whole batch is admitted atomically: if it does
// not fit under QueueSize, none of it runs and ErrOverloaded is returned.
// A batch of up to MaxBatch graphs runs on the calling goroutine; a
// larger one is split into MaxBatch segments spread over at most Workers
// goroutines, which the caller waits for.
func (e *Engine) PredictBatchInto(ctx context.Context, graphs []*graph.Graph, out []int) error {
	if len(out) != len(graphs) {
		return fmt.Errorf("serve: %d results for %d graphs", len(out), len(graphs))
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	n := len(graphs)
	if n == 0 {
		return nil
	}
	enq, err := e.admit(n)
	if err != nil {
		return err
	}
	defer e.calls.Done()
	if opts := &e.reg.opts; n <= opts.MaxBatch {
		e.run(graphs, out, enq)
	} else {
		parallel.ForEachChunk(opts.Workers, n, opts.MaxBatch, func(_, lo, hi int) {
			e.run(graphs[lo:hi], out[lo:hi], enq)
		})
	}
	e.m.observeRequest(e.reg.nanos() - enq)
	return nil
}

// admit reserves n graphs of the QueueSize bound on graphs waiting for a
// slot, joins the call to calls, and returns the stage-clock instant of
// admission; the caller calls calls.Done when it returns. A closed engine
// refuses before anything else, oversized batches included. Admitted
// graphs are counted the moment they are reserved, so
// accepted == processed + in-flight holds at every instant.
func (e *Engine) admit(n int) (int64, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return 0, ErrClosed
	}
	q := int64(e.reg.opts.QueueSize)
	for {
		d := e.depth.Load()
		if d+int64(n) > q {
			e.m.rejected.Add(1)
			if int64(n) > q {
				return 0, fmt.Errorf("%w: batch of %d exceeds queue size %d", ErrOverloaded, n, q)
			}
			return 0, ErrOverloaded
		}
		if e.depth.CompareAndSwap(d, d+int64(n)) {
			e.m.accepted.Add(uint64(n))
			e.calls.Add(1)
			return e.reg.nanos(), nil
		}
	}
}

// run encodes one segment of at most MaxBatch graphs on the calling
// goroutine. It waits for a slot — the stage clock's queue wait, counted
// from enq, the instant the call was admitted — then encodes and
// classifies the whole segment in one batch call, through a scratch from
// the encoder pool of the model current at that instant, and records the
// segment in the registry's flight recorder. The graphs count as
// processed before the slot goes back, so the graphs in flight never
// exceed QueueSize + Workers·MaxBatch.
func (e *Engine) run(graphs []*graph.Graph, out []int, enq int64) {
	r := e.reg
	<-e.slots
	start := r.nanos()
	n := len(graphs)
	e.depth.Add(-int64(n))
	var tr core.BatchTrace
	e.pred.Load().PredictBatchTraced(graphs, out, &tr)
	end := r.nanos()
	e.m.processed.Add(uint64(n))
	e.slots <- struct{}{}

	e.m.observeSegment(n, start-enq, &tr)
	rec := TraceRecord{
		Time:           r.epoch.Add(time.Duration(start)),
		Model:          e.name,
		BatchSize:      n,
		QueueWaitNanos: start - enq,
		PlanNanos:      tr.PlanNanos,
		EncodeNanos:    tr.EncodeNanos,
		ClassifyNanos:  tr.ClassifyNanos,
		TotalNanos:     end - start,
		ModelReloads:   e.m.reloads.Load(),
		Kernel:         hdc.ActiveKernel().String(),
	}
	r.rec.record(&rec)
}

// close stops the model's trainer first, since its goroutine swaps into
// this engine, then refuses every later call with ErrClosed and returns
// once every admitted call has completed. The registry calls it after
// taking the model out of its table and outside Registry.mu, so a trainer
// mid-promotion can finish its swap. close is idempotent.
func (e *Engine) close() {
	if tr := e.trainer.Load(); tr != nil {
		tr.Close()
	}
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
	e.calls.Wait()
}
