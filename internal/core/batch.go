package core

import (
	"fmt"
	"time"

	"graphhd/internal/graph"
)

// encodeBatchChunk is the batch size the parallel adopters (Fit,
// PredictAll) hand to one scratch call: each chunk checks one pooled
// scratch out and back, and its graphs share one basis-table snapshot.
const encodeBatchChunk = 32

// BatchTrace receives the stage clock of one batch predict call: the
// wall time each phase of the pipeline consumed, in monotonic
// nanoseconds. The serving worker passes one per dispatched micro-batch
// and feeds the readout into the per-stage latency histograms and the
// flight recorder (internal/serve); any future router or sharding tier
// subscribes to the same seam. Stamping costs one time.Now() per phase
// boundary per batch — never per graph — so tracing stays inside the
// serve path's overhead budget.
type BatchTrace struct {
	// PlanNanos covers centrality ranking and rank-pair grouping: each
	// graph's edges become packed rank-pair keys, sorted per graph.
	PlanNanos int64
	// EncodeNanos covers accumulate + majority sign for every fast-path
	// graph (at stage-1 width when a cascade is active).
	EncodeNanos int64
	// ClassifyNanos covers Hamming classification of every signed
	// encoding (the stage-1 margin test when a cascade is active).
	ClassifyNanos int64
	// EscalateNanos covers the cascade's full-width re-sign + re-classify
	// of margin-ambiguous graphs, plus reference-path fallbacks (labeled
	// extension, edgeless). Zero when nothing escalated.
	EscalateNanos int64
}

// stamp records now-prev into *dst and advances the clock; a nil trace
// skips timing entirely (the wrappers without tracing pass nil).
func (tr *BatchTrace) stamp(dst *int64, prev time.Time) time.Time {
	now := time.Now()
	*dst = now.Sub(prev).Nanoseconds()
	return now
}

// PredictBatchWith classifies graphs through a caller-owned scratch,
// writing one class per graph into out (len(out) must equal
// len(graphs)) — the serving batch primitive, with zero per-request heap
// allocations in steady state. s must have been vended by
// p.Encoder().NewScratch(). Classes are identical to calling Predict on
// each graph.
func (p *Predictor) PredictBatchWith(s *EncoderScratch, graphs []*graph.Graph, out []int) {
	p.PredictBatchTraced(s, graphs, out, nil)
}

// PredictBatchTraced is PredictBatchWith with an optional stage clock:
// when tr is non-nil, the plan/encode/classify phase wall times land in
// it. The pipeline runs in three phases — rank and group every graph,
// sign every graph into the scratch's per-graph output buffers, classify
// every output — so each phase boundary is a real instant and stamping
// costs one clock read per phase, not per graph. Results are identical
// to PredictBatchWith.
func (p *Predictor) PredictBatchTraced(s *EncoderScratch, graphs []*graph.Graph, out []int, tr *BatchTrace) {
	if s.enc != p.enc {
		panic("core: scratch bound to a different encoder")
	}
	if len(out) != len(graphs) {
		panic(fmt.Sprintf("core: %d results for %d graphs", len(out), len(graphs)))
	}
	var t time.Time
	if tr != nil {
		t = time.Now()
	}
	s.group(graphs)
	if tr != nil {
		t = tr.stamp(&tr.PlanNanos, t)
	}
	outs := s.signAll(graphs)
	if tr != nil {
		t = tr.stamp(&tr.EncodeNanos, t)
	}
	for gi, hv := range outs {
		out[gi] = p.pm.Classify(hv)
	}
	if tr != nil {
		tr.stamp(&tr.ClassifyNanos, t)
	}
}
