// Package serve is the online-inference subsystem. It is layered:
//
//	Registry (named models, LRU by packed bytes, atomic hot swap)
//	  └─ Router (model lookup, per-tenant quotas)
//	       └─ one Engine per model (admission, encode slots)
//
// The transport-agnostic Engine turns an immutable core.Predictor into a
// long-running, hot-swappable service. It runs no background goroutine:
// a single graph, and a batch of up to MaxBatch graphs, is encoded on the
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
//   - Hot model swap. The predictor sits behind an atomic pointer; Swap
//     installs a new one with zero downtime and zero failed in-flight
//     requests. A segment loads the predictor once, after it holds its
//     slot, and encodes through that predictor's encoder, so every
//     segment is computed coherently under exactly one model.
//   - Admission control. At most QueueSize graphs may wait for a slot;
//     past that, Predict and PredictBatch fail fast with ErrOverloaded
//     instead of letting latency collapse (the HTTP front end maps this
//     to 429).
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
	"runtime"
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
	// ErrClosed means the engine has been shut down.
	ErrClosed = errors.New("serve: engine closed")
)

// Options configures an Engine. The zero value of any field selects its
// default.
type Options struct {
	// Workers is the number of encode slots: how many encode calls run
	// at once, each on its caller's goroutine with the slot's
	// EncoderScratch. Non-positive means GOMAXPROCS.
	Workers int
	// MaxBatch bounds the graphs one encode call takes: a batch call is
	// split into segments of at most MaxBatch graphs. Default 64.
	MaxBatch int
	// QueueSize bounds the graphs admitted but still waiting for a slot,
	// across single and batch requests. Requests beyond it fail with
	// ErrOverloaded. Default 4096.
	QueueSize int
	// ModelName names this engine's model in a multi-model deployment:
	// the Registry stamps it so trace records name the model that served
	// each batch. A standalone engine defaults to "default".
	ModelName string
	// TraceDepth is the flight-recorder capacity in per-batch trace
	// records, rounded up to a power of two. Non-positive selects
	// DefaultTraceDepth. Memory is fixed at 136 bytes per record. A
	// Registry builds one ring of this depth for all of its engines.
	TraceDepth int
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 64
	}
	if o.QueueSize <= 0 {
		o.QueueSize = 4096
	}
	if o.ModelName == "" {
		o.ModelName = "default"
	}
	return o
}

// Engine serves predictions from a hot-swappable packed predictor. Create
// one with NewEngine; it is safe for concurrent use by any number of
// request goroutines.
type Engine struct {
	opts Options
	pred atomic.Pointer[core.Predictor]

	// slots holds the idle encode slots, Workers tokens of them: a
	// segment blocks here for one and sends it back when done.
	slots chan struct{}
	depth atomic.Int64 // graphs admitted but not yet holding a slot

	// mu orders admission against Close: admission joins calls under the
	// read lock, Close sets closed under the write lock, so once Close
	// waits on calls no call can join it.
	mu     sync.RWMutex
	closed bool
	calls  sync.WaitGroup // admitted calls not yet returned

	m metrics

	// Stage clock + flight recorder: epoch is the engine's monotonic time
	// base (all admission and segment stamps are nanos since it), rec
	// retains the last TraceDepth per-batch trace records; a Registry's
	// engines share its one ring.
	epoch time.Time
	rec   *flightRecorder
}

// nanos is the engine's monotonic stage clock: nanoseconds since the
// engine was built (time.Since reads the monotonic clock).
func (e *Engine) nanos() int64 { return int64(time.Since(e.epoch)) }

// NewEngine builds an engine serving pred, with a flight recorder of its
// own.
func NewEngine(pred *core.Predictor, opts Options) (*Engine, error) {
	return newEngine(pred, opts, newFlightRecorder(opts.TraceDepth))
}

// newEngine builds an engine that records its encode calls into rec.
func newEngine(pred *core.Predictor, opts Options, rec *flightRecorder) (*Engine, error) {
	if pred == nil {
		return nil, errors.New("serve: nil predictor")
	}
	opts = opts.withDefaults()
	e := &Engine{
		opts:  opts,
		slots: make(chan struct{}, opts.Workers),
		epoch: time.Now(),
		rec:   rec,
	}
	for range opts.Workers {
		e.slots <- struct{}{}
	}
	e.pred.Store(pred)
	e.m.init(opts.MaxBatch)
	return e, nil
}

// Predictor returns the currently installed model snapshot.
func (e *Engine) Predictor() *core.Predictor { return e.pred.Load() }

// Options returns the engine's resolved configuration.
func (e *Engine) Options() Options { return e.opts }

// Swap atomically installs a new predictor. In-flight requests finish
// under whichever model their segment loaded; none fail. Each segment
// encodes through the encoder of the predictor it loaded, so a swap to a
// model with a different dimension or configuration is safe.
func (e *Engine) Swap(pred *core.Predictor) error {
	if pred == nil {
		return errors.New("serve: swap to nil predictor")
	}
	e.pred.Store(pred)
	e.m.reloads.Add(1)
	return nil
}

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
	e.m.observeRequest(e.nanos() - enq)
	return out[0], nil
}

// PredictBatch classifies graphs in order, returning one class per graph.
// The whole batch is admitted atomically: if it does not fit under
// QueueSize, none of it runs and ErrOverloaded is returned.
func (e *Engine) PredictBatch(ctx context.Context, graphs []*graph.Graph) ([]int, error) {
	out := make([]int, len(graphs))
	if err := e.PredictBatchInto(ctx, graphs, out); err != nil {
		return nil, err
	}
	return out, nil
}

// PredictBatchInto is PredictBatch writing into a caller-provided slice
// (len(out) must equal len(graphs)), for callers that manage buffers. A
// batch of up to MaxBatch graphs runs on the calling goroutine; a larger
// one is split into MaxBatch segments spread over at most Workers
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
	if n <= e.opts.MaxBatch {
		e.run(graphs, out, enq)
	} else {
		parallel.ForEachChunk(e.opts.Workers, n, e.opts.MaxBatch, func(_, lo, hi int) {
			e.run(graphs[lo:hi], out[lo:hi], enq)
		})
	}
	e.m.observeRequest(e.nanos() - enq)
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
	q := int64(e.opts.QueueSize)
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
			return e.nanos(), nil
		}
	}
}

// run encodes one segment of at most MaxBatch graphs on the calling
// goroutine. It waits for a slot — the stage clock's queue wait, counted
// from enq, the instant the call was admitted — then encodes and
// classifies the whole segment in one batch call, through a scratch from
// the encoder pool of the model current at that instant, and records the
// segment in the flight recorder. The graphs count as processed before
// the slot goes back, so the graphs in flight never exceed
// QueueSize + Workers·MaxBatch.
func (e *Engine) run(graphs []*graph.Graph, out []int, enq int64) {
	<-e.slots
	start := e.nanos()
	n := len(graphs)
	e.depth.Add(-int64(n))
	var tr core.BatchTrace
	e.pred.Load().PredictBatchTraced(graphs, out, &tr)
	end := e.nanos()
	e.m.processed.Add(uint64(n))
	e.slots <- struct{}{}

	e.m.observeSegment(n, start-enq, &tr)
	rec := TraceRecord{
		Time:           e.epoch.Add(time.Duration(start)),
		Model:          e.opts.ModelName,
		BatchSize:      n,
		QueueWaitNanos: start - enq,
		PlanNanos:      tr.PlanNanos,
		EncodeNanos:    tr.EncodeNanos,
		ClassifyNanos:  tr.ClassifyNanos,
		TotalNanos:     end - start,
		ModelReloads:   e.m.reloads.Load(),
		Kernel:         hdc.ActiveKernel().String(),
	}
	e.rec.record(&rec)
}

// Close refuses every later call with ErrClosed and returns once every
// admitted call has completed. Close is idempotent.
func (e *Engine) Close() {
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
	e.calls.Wait()
}
