package core

import (
	"fmt"
	"time"

	"graphhd/internal/graph"
	"graphhd/internal/hdc"
	"graphhd/internal/parallel"
)

// encodeBatchChunk is the batch size the parallel adopters (Fit,
// PredictAll, Retrain) hand to one scratch call: each chunk checks one
// pooled scratch out and back, and its graphs share one basis-table
// snapshot.
const encodeBatchChunk = 32

// encodeChunks encodes graphs across the shared worker pool in contiguous
// encodeBatchChunk-graph chunks, each as one batch through one pooled
// scratch, and hands fn the chunk's first index and its packed
// encodings, which are valid until fn returns. fn runs on several
// goroutines at once.
func (e *Encoder) encodeChunks(graphs []*graph.Graph, fn func(lo int, outs []*hdc.Binary)) {
	e.reserveFor(graphs)
	chunks := (len(graphs) + encodeBatchChunk - 1) / encodeBatchChunk
	parallel.ForEachChunk(parallel.Workers(0, chunks), len(graphs), encodeBatchChunk, func(_, lo, hi int) {
		s := e.getScratch()
		fn(lo, s.EncodeBatch(graphs[lo:hi]))
		e.putScratch(s)
	})
}

// BatchTrace receives the stage clock of one batch predict call: the
// wall time each phase of the pipeline consumed, in monotonic
// nanoseconds. The serving engine passes one per encode call (a single
// predict, or one MaxBatch segment of a batch call) and feeds the
// readout into the per-stage latency histograms and the flight recorder
// (internal/serve); any future router or sharding tier subscribes to the
// same seam. Stamping costs one time.Now() per phase boundary per batch —
// never per graph — so tracing stays inside the serve path's overhead
// budget.
type BatchTrace struct {
	// PlanNanos covers centrality ranking and rank-pair grouping: each
	// graph's edges become packed rank-pair keys, in edge order.
	PlanNanos int64
	// EncodeNanos covers accumulate + majority sign for every graph.
	EncodeNanos int64
	// ClassifyNanos covers Hamming classification of every signed
	// encoding.
	ClassifyNanos int64
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
// len(graphs)), with zero per-request heap allocations in steady state.
// s must have been vended by p.Encoder().NewScratch(). Classes are
// identical to calling Predict on each graph.
func (p *Predictor) PredictBatchWith(s *EncoderScratch, graphs []*graph.Graph, out []int) {
	p.predictBatch(s, graphs, out, nil)
}

// PredictBatchTraced is PredictBatchWith through a scratch checked out
// of the encoder's pool — the serving batch primitive — with an optional
// stage clock: when tr is non-nil, the plan/encode/classify phase wall
// times land in it. The pipeline runs in three phases — rank and group
// every graph, sign every graph into the scratch's per-graph output
// buffers, classify every output — so each phase boundary is a real
// instant and stamping costs one clock read per phase, not per graph.
// Results are identical to PredictBatchWith.
func (p *Predictor) PredictBatchTraced(graphs []*graph.Graph, out []int, tr *BatchTrace) {
	s := p.enc.getScratch()
	p.predictBatch(s, graphs, out, tr)
	p.enc.putScratch(s)
}

// predictBatch runs the three phases through s, stamping them into a
// non-nil tr.
func (p *Predictor) predictBatch(s *EncoderScratch, graphs []*graph.Graph, out []int, tr *BatchTrace) {
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
