package serve

import (
	"sync"
	"sync/atomic"
	"time"
)

// The flight recorder is the engine's after-the-fact diagnosis surface:
// a fixed-size ring of the last N per-batch TraceRecords, written by the
// inference workers on every dispatched micro-batch and read on demand
// by GET /debug/traces and cmd/inspect -traces. A slow escalation-heavy
// burst (the PROTEINS shape) is diagnosed from the ring without a
// profiler attached: the records show exactly where each batch's
// microseconds went and what the batch looked like.
//
// Memory is strictly bounded: depth × sizeof(TraceRecord) (~160 B per
// slot, 40 KiB at the default depth of 256), allocated once at engine
// construction and never grown. Writers never allocate.

// DefaultTraceDepth is the flight-recorder capacity when
// Options.TraceDepth is zero.
const DefaultTraceDepth = 256

// TraceRecord is one flight-recorder entry: the stage-clock readout and
// shape of a single dispatched micro-batch. All *Nanos fields are
// monotonic wall-time slices of the batch's lifecycle; QueueWaitNanos is
// the longest any of the batch's tasks sat in the admission queue before
// dispatcher pickup, and DispatchNanos spans batch assembly (first task
// picked up → worker start).
type TraceRecord struct {
	// Seq is the record's 1-based ticket in arrival order; the ring
	// retains the highest-Seq records.
	Seq  uint64    `json:"seq"`
	Time time.Time `json:"time"` // wall clock at worker pickup

	// Model and Replica name the engine slot that served the batch in a
	// registry/router deployment (model "default", replica 0 standalone).
	Model   string `json:"model,omitempty"`
	Replica int    `json:"replica"`

	BatchSize int `json:"batch_size"` // graphs across the batch's tasks
	Tasks     int `json:"tasks"`      // queued tasks the batch coalesced

	QueueWaitNanos int64 `json:"queue_wait_ns"`
	DispatchNanos  int64 `json:"dispatch_ns"`
	PlanNanos      int64 `json:"plan_ns"`
	EncodeNanos    int64 `json:"encode_ns"`
	ClassifyNanos  int64 `json:"classify_ns"`
	EscalateNanos  int64 `json:"escalate_ns"`
	TotalNanos     int64 `json:"total_ns"` // worker pickup → results posted

	// Cascade reports whether two-stage classification was active;
	// Stage1/Escalated split the batch's graphs by where they were
	// decided.
	Cascade   bool `json:"cascade"`
	Stage1    int  `json:"stage1"`
	Escalated int  `json:"escalated"`

	// ModelReloads is the engine's reload counter at worker pickup — the
	// model version the batch was computed under.
	ModelReloads uint64 `json:"model_reloads"`
	// Kernel is the SIMD kernel tier serving the hot paths.
	Kernel string `json:"kernel,omitempty"`
}

// traceSlot guards one ring entry. Slots are locked individually: two
// writers contend only when they race for tickets a full ring apart
// (depth batches in flight simultaneously — in practice never), and a
// reader's try-lock skips, rather than stalls, a slot mid-write, so the
// worker hot path sees an uncontended lock: one atomic ticket, one
// uncontended Lock/Unlock, one struct copy per dispatched batch.
type traceSlot struct {
	mu  sync.Mutex
	seq uint64 // ticket published in this slot; 0 = never written
	rec TraceRecord
}

// flightRecorder is the fixed-size trace ring. The ticket counter is the
// only shared write point; slot bodies are guarded per-slot.
type flightRecorder struct {
	seq   atomic.Uint64
	slots []traceSlot
	mask  uint64
}

// newFlightRecorder rounds depth up to a power of two (masking beats
// modulo on the record path) with DefaultTraceDepth for zero.
func newFlightRecorder(depth int) *flightRecorder {
	if depth <= 0 {
		depth = DefaultTraceDepth
	}
	n := 1
	for n < depth {
		n <<= 1
	}
	return &flightRecorder{slots: make([]traceSlot, n), mask: uint64(n - 1)}
}

// depth is the ring capacity.
func (r *flightRecorder) depth() int { return len(r.slots) }

// record claims the next ticket and publishes rec (with Seq stamped)
// into its slot, overwriting the record depth tickets older.
func (r *flightRecorder) record(rec *TraceRecord) {
	t := r.seq.Add(1)
	rec.Seq = t
	s := &r.slots[(t-1)&r.mask]
	s.mu.Lock()
	s.seq = t
	s.rec = *rec
	s.mu.Unlock()
}

// snapshot copies out the retained records, newest first. Slots a writer
// holds mid-update are skipped (their record is being replaced), as are
// slots whose ticket moved past the snapshot window — the returned
// records are each internally consistent.
func (r *flightRecorder) snapshot() []TraceRecord {
	hi := r.seq.Load()
	n := uint64(len(r.slots))
	out := make([]TraceRecord, 0, min(hi, n))
	lo := uint64(1)
	if hi > n {
		lo = hi - n + 1
	}
	for t := hi; t >= lo; t-- {
		s := &r.slots[(t-1)&r.mask]
		if !s.mu.TryLock() {
			continue
		}
		if s.seq == t {
			out = append(out, s.rec)
		}
		s.mu.Unlock()
	}
	return out
}

// Traces returns the flight recorder's retained per-batch trace
// records, newest first — the payload of GET /debug/traces.
func (e *Engine) Traces() []TraceRecord {
	return e.rec.snapshot()
}

// TraceDepth returns the flight recorder's capacity in records.
func (e *Engine) TraceDepth() int { return e.rec.depth() }
