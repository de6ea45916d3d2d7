package serve

import (
	"sync"
	"sync/atomic"
	"time"
)

// The flight recorder is the engine's after-the-fact diagnosis surface:
// a fixed-size ring of the last N per-batch TraceRecords, written once
// per encode call (a single predict, or one segment of a batch call) and
// read on demand by GET /debug/traces and cmd/inspect -traces. A slow
// burst is diagnosed from the ring without a profiler attached: the
// records show exactly where each batch's microseconds went and what the
// batch looked like.
//
// Memory is strictly bounded: depth ring slots of 136 B (a TraceRecord
// with its lock and ticket), 34 KiB at the default depth of 256,
// allocated once and never grown. A Registry keeps one ring for all of
// its engines, a standalone engine one of its own. Writers never
// allocate.

// DefaultTraceDepth is the flight-recorder capacity when
// Options.TraceDepth is zero.
const DefaultTraceDepth = 256

// TraceRecord is one flight-recorder entry: the stage-clock readout and
// shape of a single encode call, which serves one single predict or one
// MaxBatch-bounded segment of a batch call. All *Nanos fields are
// monotonic wall-time slices of the call's lifecycle; QueueWaitNanos is
// how long it waited for an encode slot after admission.
type TraceRecord struct {
	// Seq is the record's 1-based ticket in arrival order; the ring
	// retains the highest-Seq records.
	Seq  uint64    `json:"seq"`
	Time time.Time `json:"time"` // wall clock when the call took its slot

	// Model names the engine that served the batch in a registry/router
	// deployment ("default" standalone).
	Model string `json:"model,omitempty"`

	BatchSize int `json:"batch_size"` // graphs in the encode call

	QueueWaitNanos int64 `json:"queue_wait_ns"`
	PlanNanos      int64 `json:"plan_ns"`
	EncodeNanos    int64 `json:"encode_ns"`
	ClassifyNanos  int64 `json:"classify_ns"`
	TotalNanos     int64 `json:"total_ns"` // slot taken → results written

	// ModelReloads is the engine's reload counter when the record was
	// written: the model version the call ran under, unless a swap landed
	// while it encoded.
	ModelReloads uint64 `json:"model_reloads"`
	// Kernel is the SIMD kernel tier serving the hot paths.
	Kernel string `json:"kernel,omitempty"`
}

// traceSlot guards one ring entry. Slots are locked individually: two
// writers contend only when they race for tickets a full ring apart
// (depth batches in flight simultaneously — in practice never), and a
// reader's try-lock skips, rather than stalls, a slot mid-write, so the
// request hot path sees an uncontended lock: one atomic ticket, one
// uncontended Lock/Unlock, one struct copy per batch.
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
// into its slot, overwriting the record depth tickets older. A writer
// delayed between its ticket and the slot lock may find a record a full
// ring newer already there; it then drops its own, so the ring keeps the
// highest tickets.
func (r *flightRecorder) record(rec *TraceRecord) {
	t := r.seq.Add(1)
	rec.Seq = t
	s := &r.slots[(t-1)&r.mask]
	s.mu.Lock()
	if t > s.seq {
		s.seq = t
		s.rec = *rec
	}
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
// records, newest first. An engine a Registry built records into the
// registry's ring, so its Traces hold every resident model's records.
func (e *Engine) Traces() []TraceRecord {
	return e.rec.snapshot()
}

// TraceDepth returns the flight recorder's capacity in records.
func (e *Engine) TraceDepth() int { return e.rec.depth() }
