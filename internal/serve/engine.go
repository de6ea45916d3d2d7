// Package serve is the online-inference subsystem. It is layered:
//
//	Registry (named models, LRU by packed bytes, rolling hot-swap)
//	  └─ Router (per-tenant quotas, least-in-flight replica placement)
//	       └─ N replica Engines per model (micro-batching, admission)
//
// The transport-agnostic Engine turns an immutable core.Predictor into a
// long-running, hot-swappable service. The Engine owns the three serving
// concerns the batch pipeline has no notion of:
//
//   - Micro-batching. Requests land in a bounded queue; a dispatcher
//     groups them into batches, flushing on MaxBatch, on MaxDelay, or
//     immediately when the queue drains while a worker is free — so a
//     fixed pool of workers stays hot under load while a lone request
//     pays no batching delay at all.
//   - Hot model swap. The predictor sits behind an atomic pointer; Swap
//     installs a new one with zero downtime and zero failed in-flight
//     requests. Workers notice the swap between dispatched batches and
//     re-bind their encoder scratch, so every response — and every
//     batch, which one worker encodes in one call — is computed
//     coherently under exactly one model.
//   - Admission control. The queue is bounded; when it is full, Predict
//     and PredictBatch fail fast with ErrOverloaded instead of letting
//     latency collapse (the HTTP front end maps this to 429).
//
// The hot path is allocation-free in steady state: request and batch
// carriers are pooled, each worker owns one core.EncoderScratch for the
// lifetime of the current model, and results travel through pre-sized
// buffers. The only per-request allocations a front end pays are its own
// (e.g. JSON decode). cmd/graphhd-serve is the HTTP front end.
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
)

// Errors returned by the admission path.
var (
	// ErrOverloaded means the bounded request queue could not accept the
	// request; the caller should shed load (HTTP 429) or retry later.
	ErrOverloaded = errors.New("serve: queue full")
	// ErrClosed means the engine has been shut down.
	ErrClosed = errors.New("serve: engine closed")
)

// Options configures an Engine. The zero value of any field selects its
// default.
type Options struct {
	// Workers is the number of inference goroutines, each owning one
	// EncoderScratch for the lifetime of the current model. Non-positive
	// means GOMAXPROCS.
	Workers int
	// MaxBatch is the micro-batch flush size. Default 64.
	MaxBatch int
	// MaxDelay bounds how long the dispatcher lets a partial batch grow
	// when every worker is busy (with a worker free, partial batches flush
	// immediately). Default 200µs.
	MaxDelay time.Duration
	// QueueSize bounds the admission queue (in graphs, across single and
	// batch requests). Requests beyond it fail with ErrOverloaded.
	// Default 4096.
	QueueSize int
	// ModelName and Replica identify this engine's slot in a multi-model
	// deployment: the Registry stamps them so metrics and trace records
	// name the model and replica that served each batch. A standalone
	// engine defaults to model "default", replica 0.
	ModelName string
	Replica   int
	// TraceDepth is the flight-recorder capacity in per-batch trace
	// records, rounded up to a power of two. Non-positive selects
	// DefaultTraceDepth. Memory is fixed at roughly 160 bytes per record.
	TraceDepth int
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 64
	}
	if o.MaxDelay <= 0 {
		o.MaxDelay = 200 * time.Microsecond
	}
	if o.QueueSize <= 0 {
		o.QueueSize = 4096
	}
	if o.ModelName == "" {
		o.ModelName = "default"
	}
	return o
}

// task is one unit of queued work: a single graph (g) or a whole
// contiguous segment of a batch call (graphs, with out aligned index for
// index). Batch calls enqueue one task per MaxBatch-sized segment instead
// of one per graph, so admission and dispatch touch the queue O(n/MaxBatch)
// times per call. Tasks are pooled; a worker recycles the task as soon as
// its results are written, then signals the owning call.
type task struct {
	g      *graph.Graph   // single-request graph; nil for batch segments
	graphs []*graph.Graph // batch-call segment; nil for single requests
	out    []int
	idx    int
	call   *call
	enq    int64 // engine-monotonic nanos at queue enter (stage clock)
}

// size returns the number of graphs the task carries.
func (t *task) size() int {
	if t.graphs != nil {
		return len(t.graphs)
	}
	return 1
}

// call is the completion state shared by every task of one Predict or
// PredictBatch invocation. Calls are pooled; done is created once and
// reused (capacity 1, exactly one send per use by the final decrementer).
type call struct {
	pending atomic.Int32
	done    chan struct{}
	res     [1]int // result storage for single-graph calls
}

var (
	taskPool = sync.Pool{New: func() any { return new(task) }}
	callPool = sync.Pool{New: func() any { return &call{done: make(chan struct{}, 1)} }}
)

// batch is the dispatcher→worker unit of work. size counts graphs across
// all tasks (batch-segment tasks carry several). open and qmax feed the
// stage clock: when the dispatcher opened the batch, and the longest
// queue wait among its tasks. Pooled.
type batch struct {
	tasks []*task
	size  int
	open  int64
	qmax  int64
}

var batchPool = sync.Pool{New: func() any { return new(batch) }}

// Engine serves predictions from a hot-swappable packed predictor. Create
// one with NewEngine; it is safe for concurrent use by any number of
// request goroutines.
type Engine struct {
	opts Options
	pred atomic.Pointer[core.Predictor]

	queue   chan *task
	batches chan *batch
	depth   atomic.Int64 // graphs admitted but not yet picked up by the dispatcher

	mu     sync.RWMutex // guards queue sends against Close
	closed bool
	wg     sync.WaitGroup

	m metrics

	// Stage clock + flight recorder: epoch is the engine's monotonic time
	// base (all task/batch stamps are nanos since it), rec retains the
	// last TraceDepth per-batch trace records.
	epoch time.Time
	rec   *flightRecorder
}

// nanos is the engine's monotonic stage clock: nanoseconds since the
// engine was built (time.Since reads the monotonic clock).
func (e *Engine) nanos() int64 { return int64(time.Since(e.epoch)) }

// NewEngine builds and starts an engine serving pred.
func NewEngine(pred *core.Predictor, opts Options) (*Engine, error) {
	e, err := newEngine(pred, opts)
	if err != nil {
		return nil, err
	}
	e.start()
	return e, nil
}

// newEngine builds an engine without starting its goroutines; tests use
// the split to exercise admission control deterministically.
func newEngine(pred *core.Predictor, opts Options) (*Engine, error) {
	if pred == nil {
		return nil, errors.New("serve: nil predictor")
	}
	opts = opts.withDefaults()
	e := &Engine{
		opts:  opts,
		queue: make(chan *task, opts.QueueSize),
		// batches is deliberately unbuffered: a non-blocking send succeeds
		// exactly when a worker is parked on the receive, which is what
		// lets the dispatcher flush partial batches the moment a worker is
		// genuinely free (buffering would dispatch singleton batches into
		// the buffer while every worker is busy, defeating MaxDelay).
		batches: make(chan *batch),
		epoch:   time.Now(),
		rec:     newFlightRecorder(opts.TraceDepth),
	}
	e.pred.Store(pred)
	e.m.init(opts.MaxBatch)
	return e, nil
}

func (e *Engine) start() {
	e.wg.Add(1 + e.opts.Workers)
	go e.dispatch()
	for i := 0; i < e.opts.Workers; i++ {
		go e.worker()
	}
}

// Predictor returns the currently installed model snapshot.
func (e *Engine) Predictor() *core.Predictor { return e.pred.Load() }

// Options returns the engine's resolved configuration.
func (e *Engine) Options() Options { return e.opts }

// Swap atomically installs a new predictor. In-flight requests finish
// under whichever model their worker loads; none fail. Workers re-bind
// their encoder scratch on the next batch they dispatch, so a swap to a
// model with a different dimension or configuration is safe.
func (e *Engine) Swap(pred *core.Predictor) error {
	if pred == nil {
		return errors.New("serve: swap to nil predictor")
	}
	e.pred.Store(pred)
	e.m.reloads.Add(1)
	return nil
}

// Predict classifies one graph through the micro-batching queue and
// returns its class under the model current at processing time. It fails
// fast with ErrOverloaded when the queue is full; once admitted, the
// request always completes (ctx governs admission, not processing, which
// is bounded by MaxDelay plus one batch of work).
func (e *Engine) Predict(ctx context.Context, g *graph.Graph) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	t0 := time.Now()
	c := callPool.Get().(*call)
	c.pending.Store(1)
	t := taskPool.Get().(*task)
	t.g, t.out, t.idx, t.call = g, c.res[:], 0, c

	if err := e.enqueue(t); err != nil {
		t.g, t.out, t.call = nil, nil, nil
		taskPool.Put(t)
		callPool.Put(c)
		return 0, err
	}
	<-c.done
	class := c.res[0]
	callPool.Put(c)
	e.m.observeRequest(time.Since(t0))
	return class, nil
}

// PredictBatch classifies graphs in order, returning one class per graph.
// The whole batch is admitted atomically: if the queue cannot take all of
// it, nothing is enqueued and ErrOverloaded is returned.
func (e *Engine) PredictBatch(ctx context.Context, graphs []*graph.Graph) ([]int, error) {
	out := make([]int, len(graphs))
	if err := e.PredictBatchInto(ctx, graphs, out); err != nil {
		return nil, err
	}
	return out, nil
}

// PredictBatchInto is PredictBatch writing into a caller-provided slice
// (len(out) must equal len(graphs)), for callers that manage buffers.
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
	if n > e.opts.QueueSize {
		e.m.rejected.Add(1)
		return fmt.Errorf("%w: batch of %d exceeds queue size %d", ErrOverloaded, n, e.opts.QueueSize)
	}
	t0 := time.Now()
	// The batch is enqueued as MaxBatch-sized contiguous segments, one
	// task each: a worker encodes a whole segment in one batch call, and
	// the queue is touched once per segment instead of once per graph.
	segs := (n + e.opts.MaxBatch - 1) / e.opts.MaxBatch
	c := callPool.Get().(*call)
	c.pending.Store(int32(segs))

	e.mu.RLock()
	if e.closed {
		e.mu.RUnlock()
		callPool.Put(c)
		return ErrClosed
	}
	if !e.admit(int64(n)) {
		e.mu.RUnlock()
		callPool.Put(c)
		return ErrOverloaded
	}
	// Capacity is reserved: none of these sends can block.
	enq := e.nanos() // segments enter the queue together; stamp once
	for lo := 0; lo < n; lo += e.opts.MaxBatch {
		hi := lo + e.opts.MaxBatch
		if hi > n {
			hi = n
		}
		t := taskPool.Get().(*task)
		t.graphs, t.out, t.idx, t.call, t.enq = graphs[lo:hi], out[lo:hi], 0, c, enq
		e.queue <- t
	}
	e.mu.RUnlock()

	<-c.done
	callPool.Put(c)
	e.m.observeRequest(time.Since(t0))
	return nil
}

// enqueue admits and queues a single task.
func (e *Engine) enqueue(t *task) error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return ErrClosed
	}
	if !e.admit(1) {
		return ErrOverloaded
	}
	t.enq = e.nanos()
	e.queue <- t // cannot block: capacity reserved by admit
	return nil
}

// admit reserves n slots in the bounded queue, reporting false (and
// counting a rejection) when they are not available. Admitted graphs are
// counted the moment capacity is reserved, so
// accepted == processed + in-flight holds at every instant.
func (e *Engine) admit(n int64) bool {
	for {
		d := e.depth.Load()
		if d+n > int64(e.opts.QueueSize) {
			e.m.rejected.Add(1)
			return false
		}
		if e.depth.CompareAndSwap(d, d+n) {
			e.m.accepted.Add(uint64(n))
			return true
		}
	}
}

// dispatch is the micro-batcher: it pulls tasks off the queue and groups
// them into batches, flushing when a batch reaches MaxBatch, when the
// queue drains while a worker slot is free (a lone request pays no
// batching delay), or — with every worker busy — when MaxDelay has
// elapsed, the saturation regime where letting the batch grow is free.
// pickup moves a task from the queue into a forming batch, observing its
// queue wait (queue-enter to this instant) on the stage clock and
// tracking the batch's worst wait for the flight recorder.
func (e *Engine) pickup(b *batch, t *task) {
	e.depth.Add(-int64(t.size()))
	w := e.nanos() - t.enq
	e.m.queueWait.observe(float64(w) * 1e-9)
	if w > b.qmax {
		b.qmax = w
	}
	b.tasks = append(b.tasks, t)
	b.size += t.size()
}

func (e *Engine) dispatch() {
	defer e.wg.Done()
	defer close(e.batches)
	timer := time.NewTimer(e.opts.MaxDelay)
	timer.Stop() // Go 1.23+ timers: Stop/Reset need no channel draining
	for {
		t, ok := <-e.queue
		if !ok {
			return
		}
		b := batchPool.Get().(*batch)
		b.tasks = b.tasks[:0]
		b.size, b.qmax = 0, 0
		b.open = e.nanos()
		e.pickup(b, t)
		if !e.fill(b, timer) {
			return
		}
	}
}

// fill grows b until a flush condition holds, then hands it to a worker.
// It reports false when the queue has been closed (b is still flushed).
func (e *Engine) fill(b *batch, timer *time.Timer) bool {
	for {
		// Greedily take whatever is already queued, counting graphs (a
		// batch-segment task carries up to MaxBatch of them).
		for b.size < e.opts.MaxBatch {
			select {
			case t, ok := <-e.queue:
				if !ok {
					e.batches <- b
					return false
				}
				e.pickup(b, t)
				continue
			default:
			}
			break
		}
		if b.size >= e.opts.MaxBatch {
			e.batches <- b
			return true
		}
		// Queue drained below MaxBatch: flush now if a worker can take the
		// batch — waiting would add latency with nothing left to batch.
		select {
		case e.batches <- b:
			return true
		default:
		}
		// Every worker is busy: let the batch grow for up to MaxDelay.
		timer.Reset(e.opts.MaxDelay)
		select {
		case t, ok := <-e.queue:
			timer.Stop()
			if !ok {
				e.batches <- b
				return false
			}
			e.pickup(b, t)
		case <-timer.C:
			e.batches <- b
			return true
		}
	}
}

// worker is one inference goroutine. It owns a single
// core.EncoderScratch, re-vended only when a hot swap installs a model
// with a different encoder, and encodes every dispatched batch — singles
// and batch-call segments alike — in one batch call
// (Predictor.PredictBatchTraced). The predictor is loaded once per
// dispatched batch, so all of a batch's responses are computed
// coherently under exactly one model; a concurrent Swap takes effect at
// the next batch boundary. Steady state allocates nothing: the scratch's
// grouping and output buffers plus the worker's gather/result buffers
// amortize across the worker's lifetime.
func (e *Engine) worker() {
	defer e.wg.Done()
	var enc *core.Encoder
	var scratch *core.EncoderScratch
	var gbuf []*graph.Graph
	var rbuf []int
	var rec TraceRecord // reused carrier; the recorder copies it out
	for b := range e.batches {
		start := e.nanos()
		e.m.observeBatch(b.size)
		p := e.pred.Load()
		if pe := p.Encoder(); pe != enc {
			enc = pe
			scratch = enc.NewScratch()
		}
		gbuf = gbuf[:0]
		for _, t := range b.tasks {
			if t.graphs != nil {
				gbuf = append(gbuf, t.graphs...)
			} else {
				gbuf = append(gbuf, t.g)
			}
		}
		if cap(rbuf) < len(gbuf) {
			rbuf = make([]int, len(gbuf))
		}
		rbuf = rbuf[:len(gbuf)]
		var tr core.BatchTrace
		var stage1, escalated int
		_, cascading := p.Cascade()
		if cascading {
			// Two-stage path: the whole batch encodes once at prefix
			// width; only ambiguous graphs pay full dimension.
			stage1, escalated = p.PredictBatchCascadeTraced(scratch, gbuf, rbuf, &tr)
			e.m.observeCascade(stage1, escalated)
		} else {
			p.PredictBatchTraced(scratch, gbuf, rbuf, &tr)
		}
		e.m.observeStages(&tr, cascading)
		rec = TraceRecord{
			Time:           e.epoch.Add(time.Duration(start)),
			Model:          e.opts.ModelName,
			Replica:        e.opts.Replica,
			BatchSize:      b.size,
			Tasks:          len(b.tasks),
			QueueWaitNanos: b.qmax,
			DispatchNanos:  start - b.open,
			PlanNanos:      tr.PlanNanos,
			EncodeNanos:    tr.EncodeNanos,
			ClassifyNanos:  tr.ClassifyNanos,
			EscalateNanos:  tr.EscalateNanos,
			TotalNanos:     e.nanos() - start,
			Cascade:        cascading,
			Stage1:         stage1,
			Escalated:      escalated,
			ModelReloads:   e.m.reloads.Load(),
			Kernel:         hdc.ActiveKernel().String(),
		}
		e.rec.record(&rec)
		j := 0
		for _, t := range b.tasks {
			if t.graphs != nil {
				j += copy(t.out, rbuf[j:j+len(t.graphs)])
			} else {
				t.out[t.idx] = rbuf[j]
				j++
			}
			e.m.processed.Add(uint64(t.size()))
			c := t.call
			t.g, t.graphs, t.out, t.call = nil, nil, nil, nil
			taskPool.Put(t)
			// The atomic decrement orders every worker's result write
			// before the final signal; after the send the caller owns c.
			if c.pending.Add(-1) == 0 {
				c.done <- struct{}{}
			}
		}
		clear(gbuf)
		clear(b.tasks)
		b.tasks = b.tasks[:0]
		b.size = 0
		batchPool.Put(b)
	}
}

// Close drains the queue, completes every admitted request, and stops the
// dispatcher and workers. Requests arriving after Close fail with
// ErrClosed. Close is idempotent.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		e.wg.Wait()
		return
	}
	e.closed = true
	close(e.queue)
	e.mu.Unlock()
	e.wg.Wait()
}
