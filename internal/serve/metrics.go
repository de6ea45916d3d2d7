package serve

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strconv"
	"sync/atomic"

	"graphhd/internal/core"
	"graphhd/internal/hdc"
)

// metrics is the engine's internal instrumentation: plain atomics and
// fixed-bucket histograms, observed lock-free and allocation-free on the
// hot path. Snapshot them with Engine.Metrics; the HTTP front end renders
// them as Prometheus text exposition via WriteRouterMetrics.
type metrics struct {
	requests  atomic.Uint64 // completed Predict/PredictBatch calls
	rejected  atomic.Uint64 // calls refused by admission control
	accepted  atomic.Uint64 // graphs admitted past admission control
	processed atomic.Uint64 // graphs classified
	reloads   atomic.Uint64 // successful model swaps

	latency   histogram // per-call latency, seconds
	batchSize histogram // graphs per encode call (segment)

	// Stage clock: where a segment's microseconds go, all observed once
	// per segment: queueWait from admission to holding a slot, the stage
	// histograms from the segment's core.BatchTrace readout.
	queueWait     histogram
	stagePlan     histogram
	stageEncode   histogram
	stageClassify histogram
}

// powerBounds returns n power-of-two bucket bounds starting at lo.
func powerBounds(lo float64, n int) []float64 {
	bounds := make([]float64, n)
	for i := range bounds {
		bounds[i] = lo
		lo *= 2
	}
	return bounds
}

func (m *metrics) init(maxBatch int) {
	// Latency buckets: 16 powers of two from 16µs to ~0.5s, a range that
	// spans a cache-hot single predict through a deeply queued burst.
	m.latency.init(powerBounds(16e-6, 16))

	// Batch-size buckets: powers of two up to MaxBatch.
	var sizes []float64
	for s := 1; s < maxBatch; s *= 2 {
		sizes = append(sizes, float64(s))
	}
	m.batchSize.init(append(sizes, float64(maxBatch)))

	// Stage buckets: 16 powers of two from 250ns to ~8ms. The floor
	// resolves a cache-hot classify pass (a few µs per batch); the
	// ceiling covers a MaxBatch segment of large graphs.
	for _, h := range []*histogram{
		&m.queueWait, &m.stagePlan, &m.stageEncode, &m.stageClassify,
	} {
		h.init(powerBounds(250e-9, 16))
	}
}

// observeRequest counts one completed call that took nanos from
// admission to its last result.
func (m *metrics) observeRequest(nanos int64) {
	m.requests.Add(1)
	m.latency.observe(float64(nanos) * 1e-9)
}

// observeSegment feeds one encode call of n graphs into the histograms:
// its slot wait and its stage-clock readout.
func (m *metrics) observeSegment(n int, waitNanos int64, tr *core.BatchTrace) {
	m.batchSize.observe(float64(n))
	m.queueWait.observe(float64(waitNanos) * 1e-9)
	m.stagePlan.observe(float64(tr.PlanNanos) * 1e-9)
	m.stageEncode.observe(float64(tr.EncodeNanos) * 1e-9)
	m.stageClassify.observe(float64(tr.ClassifyNanos) * 1e-9)
}

// atomicAddFloat64 adds v to a float64 kept as bits in an atomic.Uint64
// — the allocation-free sum accumulator shared by every histogram.
func atomicAddFloat64(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// histogram is a fixed-bound Prometheus-style histogram. counts[i] holds
// observations ≤ bounds[i]; counts[len(bounds)] is the +Inf bucket. The
// sum is kept as float64 bits behind atomicAddFloat64 so observe stays
// allocation-free.
type histogram struct {
	bounds  []float64
	b16     *[16]float64 // set when len(bounds) == 16: branch-free search
	counts  []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
}

func (h *histogram) init(bounds []float64) {
	h.bounds = bounds
	h.counts = make([]atomic.Uint64, len(bounds)+1)
	if len(bounds) == 16 {
		h.b16 = (*[16]float64)(bounds)
	}
}

// b2i is compiled to a flag-set instruction, not a branch.
func b2i(c bool) int {
	if c {
		return 1
	}
	return 0
}

// bucket returns the index of the bucket v lands in. Sorted bounds make
// the index just the count of bounds v exceeds, so the 16-bucket case —
// every per-request-path histogram — runs unrolled and branch-free
// instead of taking a data-dependent early exit the branch predictor
// can't learn across mixed-latency traffic.
func (h *histogram) bucket(v float64) int {
	if b := h.b16; b != nil {
		return b2i(v > b[0]) + b2i(v > b[1]) + b2i(v > b[2]) + b2i(v > b[3]) +
			b2i(v > b[4]) + b2i(v > b[5]) + b2i(v > b[6]) + b2i(v > b[7]) +
			b2i(v > b[8]) + b2i(v > b[9]) + b2i(v > b[10]) + b2i(v > b[11]) +
			b2i(v > b[12]) + b2i(v > b[13]) + b2i(v > b[14]) + b2i(v > b[15])
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	return i
}

func (h *histogram) observe(v float64) {
	h.counts[h.bucket(v)].Add(1)
	h.count.Add(1)
	atomicAddFloat64(&h.sumBits, v)
}

// HistogramSnapshot is a point-in-time copy of a histogram. Counts are
// per-bucket (not cumulative); the last entry is the +Inf bucket.
type HistogramSnapshot struct {
	Bounds []float64
	Counts []uint64
	Count  uint64
	Sum    float64
}

func (h *histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    math.Float64frombits(h.sumBits.Load()),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) from the bucketed
// distribution by linear interpolation inside the target bucket — the
// same estimate Prometheus's histogram_quantile computes. The first
// bucket interpolates from zero; a target in the +Inf bucket returns the
// highest finite bound. NaN when the histogram is empty. CI stamps the
// stage-histogram medians into BENCH artifacts through this.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return math.NaN()
	}
	rank := q * float64(s.Count)
	cum := uint64(0)
	for i, c := range s.Counts {
		if float64(cum+c) < rank {
			cum += c
			continue
		}
		if i >= len(s.Bounds) { // +Inf bucket: no upper bound to interpolate to
			return s.Bounds[len(s.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		if c == 0 {
			return s.Bounds[i]
		}
		return lo + (s.Bounds[i]-lo)*(rank-float64(cum))/float64(c)
	}
	return s.Bounds[len(s.Bounds)-1]
}

// Metrics is a point-in-time snapshot of the engine's instrumentation.
type Metrics struct {
	// Requests counts completed Predict/PredictBatch calls; Rejected counts
	// calls refused by admission control; Processed counts graphs
	// classified; Reloads counts successful model swaps.
	Requests, Rejected, Processed, Reloads uint64
	// AcceptedGraphs counts graphs admitted past admission control, at the
	// moment queue capacity was reserved. The conservation invariant
	// AcceptedGraphs == Processed + InFlight holds at every instant, and
	// AcceptedGraphs == Processed once the engine quiesces.
	AcceptedGraphs uint64
	// InFlight is the number of graphs admitted but not yet classified
	// (waiting for an encode slot or being encoded).
	InFlight uint64
	// QueueDepth is the number of graphs admitted but not yet holding an
	// encode slot.
	QueueDepth int
	// Latency is the per-call latency distribution in seconds; BatchSize
	// is the distribution of graphs per encode call: 1 for a single
	// predict, one MaxBatch-bounded segment of a batch call.
	Latency, BatchSize HistogramSnapshot
	// QueueWait is the per-segment wait for an encode slot (admission to
	// holding a slot), seconds.
	QueueWait HistogramSnapshot
	// StagePlan/StageEncode/StageClassify are the per-segment
	// stage-clock distributions in seconds: ranking + rank-pair
	// grouping, accumulate+sign, and Hamming classification. Together
	// with QueueWait they attribute every microsecond of a request's
	// life inside the engine.
	StagePlan, StageEncode, StageClassify HistogramSnapshot
}

// Reloads returns the number of successful model swaps without the cost
// of a full Metrics snapshot.
func (e *Engine) Reloads() uint64 { return e.m.reloads.Load() }

// Metrics snapshots the engine's counters and histograms.
func (e *Engine) Metrics() Metrics {
	// processed is loaded before accepted so the derived InFlight gauge
	// can never go negative under concurrent progress.
	processed := e.m.processed.Load()
	accepted := e.m.accepted.Load()
	return Metrics{
		Requests:       e.m.requests.Load(),
		Rejected:       e.m.rejected.Load(),
		Processed:      processed,
		Reloads:        e.m.reloads.Load(),
		AcceptedGraphs: accepted,
		InFlight:       accepted - processed,
		QueueDepth:     int(e.depth.Load()),
		Latency:        e.m.latency.snapshot(),
		BatchSize:      e.m.batchSize.snapshot(),
		QueueWait:      e.m.queueWait.snapshot(),
		StagePlan:      e.m.stagePlan.snapshot(),
		StageEncode:    e.m.stageEncode.snapshot(),
		StageClassify:  e.m.stageClassify.snapshot(),
	}
}

// writeProcessGauges renders the process-wide identity and Go-runtime
// families. These are per-process facts, so they stay unlabeled even in
// multi-model deployments.
func writeProcessGauges(p func(string, ...any)) {
	ks := hdc.Kernels()
	p("# HELP graphhd_kernel_info SIMD kernel tier serving the encode/query hot paths (info gauge; the value is always 1).\n# TYPE graphhd_kernel_info gauge\ngraphhd_kernel_info{tier=%q,features=%q} 1\n",
		ks.Active.String(), ks.CPUFeatures)
	bi := Build()
	p("# HELP graphhd_build_info Build identity of the serving binary (info gauge; the value is always 1).\n# TYPE graphhd_build_info gauge\ngraphhd_build_info{go_version=%q,vcs_revision=%q} 1\n",
		bi.GoVersion, bi.VCSRevision)

	// Go runtime health, scraped alongside the engine counters so a GC
	// or goroutine-leak regression correlates with the latency
	// histograms on the same timeline. ReadMemStats briefly stops the
	// world; at scrape cadence that is noise.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p("# HELP graphhd_go_goroutines Goroutines in the serving process.\n# TYPE graphhd_go_goroutines gauge\ngraphhd_go_goroutines %d\n", runtime.NumGoroutine())
	p("# HELP graphhd_go_heap_alloc_bytes Live heap bytes.\n# TYPE graphhd_go_heap_alloc_bytes gauge\ngraphhd_go_heap_alloc_bytes %d\n", ms.HeapAlloc)
	p("# HELP graphhd_go_gc_cycles_total Completed GC cycles.\n# TYPE graphhd_go_gc_cycles_total counter\ngraphhd_go_gc_cycles_total %d\n", ms.NumGC)
	p("# HELP graphhd_go_gc_pause_seconds_total Cumulative GC stop-the-world pause time.\n# TYPE graphhd_go_gc_pause_seconds_total counter\ngraphhd_go_gc_pause_seconds_total %g\n", float64(ms.PauseTotalNs)*1e-9)
}

// WriteRouterMetrics renders the multi-model deployment in Prometheus
// text exposition format: registry residency and tenant-quota families,
// every engine counter, gauge and histogram and every per-model gauge
// labeled {model}, and the unlabeled process families. Families
// are emitted family-major (all series of a family contiguous under one
// HELP/TYPE header), which is what the text exposition contract — and
// the strict parser in the tests — requires.
func WriteRouterMetrics(w io.Writer, rt *Router) error {
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}

	// Snapshot everything first so each family can be written
	// contiguously: one engine Metrics snapshot per model, in name order.
	type slot struct {
		labels string
		m      Metrics
	}
	table := *rt.reg.models.Load()
	names := make([]string, 0, len(table))
	for name := range table {
		names = append(names, name)
	}
	sort.Strings(names)
	slots := make([]slot, len(names))
	for i, name := range names {
		slots[i] = slot{labels: fmt.Sprintf("model=%q", name), m: table[name].Metrics()}
	}
	tenants := rt.Tenants()

	// Registry residency.
	p("# HELP graphhd_models_resident Named models resident in the registry.\n# TYPE graphhd_models_resident gauge\ngraphhd_models_resident %d\n", len(names))
	p("# HELP graphhd_registry_bytes Summed packed footprint of resident models.\n# TYPE graphhd_registry_bytes gauge\ngraphhd_registry_bytes %d\n", rt.reg.Bytes())
	p("# HELP graphhd_registry_evictions_total Models evicted by the resident-bytes bound.\n# TYPE graphhd_registry_evictions_total counter\ngraphhd_registry_evictions_total %d\n", rt.reg.Evictions())

	// Tenant admission.
	p("# HELP graphhd_quota_rejected_total Requests refused by the per-tenant in-flight quota.\n# TYPE graphhd_quota_rejected_total counter\n")
	for _, t := range tenants {
		p("graphhd_quota_rejected_total{tenant=%q} %d\n", t.Tenant, t.Rejected)
	}
	p("# HELP graphhd_tenant_inflight_graphs Graphs in flight per tenant.\n# TYPE graphhd_tenant_inflight_graphs gauge\n")
	for _, t := range tenants {
		p("graphhd_tenant_inflight_graphs{tenant=%q} %d\n", t.Tenant, t.InFlight)
	}

	// Engine counters, one series per model.
	counter := func(name, help string, get func(*Metrics) uint64) {
		p("# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		for i := range slots {
			p("%s{%s} %d\n", name, slots[i].labels, get(&slots[i].m))
		}
	}
	counter("graphhd_requests_total", "Completed predict calls.", func(m *Metrics) uint64 { return m.Requests })
	counter("graphhd_rejected_total", "Predict calls refused by admission control.", func(m *Metrics) uint64 { return m.Rejected })
	counter("graphhd_graphs_accepted_total", "Graphs admitted past admission control.", func(m *Metrics) uint64 { return m.AcceptedGraphs })
	counter("graphhd_graphs_processed_total", "Graphs classified.", func(m *Metrics) uint64 { return m.Processed })
	counter("graphhd_model_reloads_total", "Successful hot model swaps.", func(m *Metrics) uint64 { return m.Reloads })

	// Engine gauges, one series per model.
	p("# HELP graphhd_inflight_graphs Graphs admitted but not yet classified.\n# TYPE graphhd_inflight_graphs gauge\n")
	for i := range slots {
		p("graphhd_inflight_graphs{%s} %d\n", slots[i].labels, slots[i].m.InFlight)
	}
	p("# HELP graphhd_queue_depth Graphs admitted but not yet holding an encode slot.\n# TYPE graphhd_queue_depth gauge\n")
	for i := range slots {
		p("graphhd_queue_depth{%s} %d\n", slots[i].labels, slots[i].m.QueueDepth)
	}

	// Model cards, one series per model.
	modelGauge := func(name, help string, get func(*Engine) int64) {
		p("# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
		for _, n := range names {
			p("%s{model=%q} %d\n", name, n, get(table[n]))
		}
	}
	modelGauge("graphhd_model_classes", "Classes in the installed model.",
		func(m *Engine) int64 { return int64(m.Predictor().NumClasses()) })
	modelGauge("graphhd_model_memory_bytes", "Packed class-vector bytes of the installed model.",
		func(m *Engine) int64 { return int64(m.Predictor().MemoryBytes()) })
	modelGauge("graphhd_model_dimension", "Hypervector dimensionality of the installed model.",
		func(m *Engine) int64 { return int64(m.Predictor().Dimension()) })
	modelGauge("graphhd_model_version", "Registry version of the installed model (bumps on every swap).",
		func(m *Engine) int64 { return int64(m.Reloads() + 1) })
	modelGauge("graphhd_model_revision", "Online-update revision stamped into the serving predictor.",
		func(m *Engine) int64 { return int64(m.Predictor().Revision()) })

	// Online-learning families, one series per model with a trainer
	// attached. Snapshot first (name order follows names) so each family
	// is contiguous.
	type trainerSlot struct {
		name string
		tr   *Trainer
	}
	var trainers []trainerSlot
	for _, n := range names {
		if tr := table[n].trainer.Load(); tr != nil {
			trainers = append(trainers, trainerSlot{n, tr})
		}
	}
	// The strict exposition contract forbids a declared family with zero
	// series, so every trainer family is emitted only when a trainer
	// exists.
	trainerCounter := func(name, help string, get func(*Trainer) uint64) {
		if len(trainers) == 0 {
			return
		}
		p("# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		for _, t := range trainers {
			p("%s{model=%q} %d\n", name, t.name, get(t.tr))
		}
	}
	trainerCounter("graphhd_feedback_ingested_total", "Labeled feedback samples accepted into the trainer buffer.",
		func(t *Trainer) uint64 { return t.ingested.Load() })
	trainerCounter("graphhd_feedback_dropped_total", "Labeled feedback samples shed by the full trainer buffer.",
		func(t *Trainer) uint64 { return t.dropped.Load() })
	trainerCounter("graphhd_trainer_updates_total", "Corrective perceptron updates applied by the online trainer.",
		func(t *Trainer) uint64 { return t.updates.Load() })
	trainerCounter("graphhd_trainer_snapshots_total", "Candidate snapshots taken and validated by the online trainer.",
		func(t *Trainer) uint64 { return t.snapshots.Load() })
	trainerCounter("graphhd_trainer_promotions_total", "Validated candidates promoted via hot swap.",
		func(t *Trainer) uint64 { return t.promoted.Load() })
	trainerCounter("graphhd_trainer_rollbacks_total", "Candidates rolled back by the holdout gate or a failed swap.",
		func(t *Trainer) uint64 { return t.rolledX.Load() })
	if len(trainers) > 0 {
		p("# HELP graphhd_trainer_buffer_len Feedback samples buffered, awaiting the trainer goroutine.\n# TYPE graphhd_trainer_buffer_len gauge\n")
		for _, t := range trainers {
			p("graphhd_trainer_buffer_len{model=%q} %d\n", t.name, len(t.tr.buf))
		}
		p("# HELP graphhd_trainer_model_revision Online-update revision of the live trainable model.\n# TYPE graphhd_trainer_model_revision gauge\n")
		for _, t := range trainers {
			p("graphhd_trainer_model_revision{model=%q} %d\n", t.name, t.tr.model.Revision())
		}
	}

	writeProcessGauges(p)

	// Histograms, one series set per model.
	hist := func(name, help string, get func(*Metrics) HistogramSnapshot) {
		p("# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
		for i := range slots {
			writeHistogramSeries(p, name, slots[i].labels, get(&slots[i].m))
		}
	}
	hist("graphhd_request_latency_seconds", "Per-call latency from admission to response.", func(m *Metrics) HistogramSnapshot { return m.Latency })
	hist("graphhd_batch_size", "Graphs per encode call: 1 per single predict, one segment per batch call.", func(m *Metrics) HistogramSnapshot { return m.BatchSize })
	hist("graphhd_queue_wait_seconds", "Per-segment wait for an encode slot, admission to slot.", func(m *Metrics) HistogramSnapshot { return m.QueueWait })

	p("# HELP graphhd_stage_seconds Per-segment wall time by pipeline stage.\n# TYPE graphhd_stage_seconds histogram\n")
	for i := range slots {
		for _, st := range []struct {
			label string
			h     HistogramSnapshot
		}{
			{"plan", slots[i].m.StagePlan},
			{"encode", slots[i].m.StageEncode},
			{"classify", slots[i].m.StageClassify},
		} {
			writeHistogramSeries(p, "graphhd_stage_seconds", slots[i].labels+`,stage="`+st.label+`"`, st.h)
		}
	}
	return err
}

// writeHistogramSeries renders the bucket/sum/count series of one
// histogram under an already-written family header. labels is a
// preformatted, non-empty `k="v"` list applied to every series. Buckets
// are cumulative with a final +Inf bucket equal to the total count, per
// the text exposition contract.
func writeHistogramSeries(p func(string, ...any), name, labels string, h HistogramSnapshot) {
	cum := uint64(0)
	for i, b := range h.Bounds {
		cum += h.Counts[i]
		p("%s_bucket{%s,le=%q} %d\n", name, labels, strconv.FormatFloat(b, 'g', -1, 64), cum)
	}
	if n := len(h.Counts); n > 0 {
		cum += h.Counts[n-1]
	}
	p("%s_bucket{%s,le=\"+Inf\"} %d\n", name, labels, cum)
	p("%s_sum{%s} %g\n%s_count{%s} %d\n", name, labels, h.Sum, name, labels, h.Count)
}
