package core

import (
	"fmt"

	"graphhd/internal/graph"
	"graphhd/internal/hdc"
	"graphhd/internal/parallel"
)

// Predictor is an immutable packed-inference snapshot of a trained Model:
// class vectors majority-voted down to bit-packed Binary form, queried by
// popcount Hamming distance on hypervectors that stay bit-packed from
// encoding through classification. It is the deployment artifact — the
// whole query path runs on d/64 uint64 words, an 8× smaller query memory
// and a far cheaper inner loop than the int8 reference pipeline, with
// predictions bit-for-bit identical to a Model configured with
// BipolarClassVectors: true (exactly the majority-voted semantics the
// snapshot freezes).
//
// A Predictor does not learn; keep the Model for training/retraining and
// re-snapshot after updates. Predictors are safe for concurrent use.
type Predictor struct {
	enc *Encoder
	pm  *hdc.PackedMemory
	// revision is the source model's online-update count at snapshot
	// time (zero for freshly fitted models and pre-revision artifacts).
	// Immutable once set; see Model.Revision.
	revision uint64
}

// Snapshot freezes the model's current class accumulators into a packed
// query predictor, stamped with the model's revision at snapshot time so
// staleness relative to further online updates stays detectable.
func (m *Model) Snapshot() *Predictor {
	// Revision is read before the class vectors: under a racy snapshot the
	// stamp can only under-count, so staleness is over-reported, never
	// missed. (With the documented single-writer discipline the two are
	// exact.)
	rev := m.rev.Load()
	return &Predictor{enc: m.enc, pm: m.am.Snapshot(), revision: rev}
}

// newPredictor assembles a predictor from deserialized parts.
func newPredictor(enc *Encoder, classes []*hdc.Binary) (*Predictor, error) {
	pm, err := hdc.NewPackedMemory(classes)
	if err != nil {
		return nil, err
	}
	if pm.Dim() != enc.Dimension() {
		return nil, fmt.Errorf("core: class dimension %d does not match encoder dimension %d",
			pm.Dim(), enc.Dimension())
	}
	return &Predictor{enc: enc, pm: pm}, nil
}

// Encoder returns the predictor's encoder.
func (p *Predictor) Encoder() *Encoder { return p.enc }

// Revision returns the source model's online-update count at snapshot
// time. A serving snapshot whose revision trails the live model's
// Revision() is stale: it predates online updates and serves the old
// class vectors. Zero for predictors snapshotted from never-updated
// models and for artifacts predating revision stamping.
func (p *Predictor) Revision() uint64 { return p.revision }

// Dimension returns the hypervector dimensionality of the model.
func (p *Predictor) Dimension() int { return p.pm.Dim() }

// NumClasses returns the number of classes.
func (p *Predictor) NumClasses() int { return p.pm.NumClasses() }

// ClassVector returns the packed class vector of class c (shared;
// read-only).
func (p *Predictor) ClassVector(c int) *hdc.Binary { return p.pm.ClassVector(c) }

// MemoryBytes returns the bytes held by the packed class vectors — the
// predictor's entire query-time model state (k × d/8, rounded up to
// words). Compare Model.MemoryBytes.
func (p *Predictor) MemoryBytes() int { return p.pm.MemoryBytes() }

// Predict returns the predicted class of g. The graph is encoded directly
// to a bit-packed hypervector held in a pooled scratch and classified by
// Hamming distance; no int8 intermediate is materialized and steady-state
// prediction of unlabeled graphs performs zero heap allocations.
func (p *Predictor) Predict(g *graph.Graph) int {
	s := p.enc.getScratch()
	defer p.enc.putScratch(s)
	return p.PredictWith(s, g)
}

// PredictEncoded classifies an already packed graph-hypervector.
func (p *Predictor) PredictEncoded(hv *hdc.Binary) int {
	return p.pm.Classify(hv)
}

// PredictWith classifies g through a caller-owned scratch with zero heap
// allocations and zero pool traffic: it is PredictBatchWith on a batch of
// one. s must have been vended by p.Encoder().NewScratch() and must not
// be shared across goroutines.
func (p *Predictor) PredictWith(s *EncoderScratch, g *graph.Graph) int {
	gs := [1]*graph.Graph{g}
	var out [1]int
	p.PredictBatchWith(s, gs[:], out[:])
	return out[0]
}

// PredictAll classifies a batch of graphs across the shared worker pool,
// preserving order. Each 32-graph chunk runs through one pooled
// EncoderScratch, so the whole batch encodes and classifies without
// per-graph heap allocations.
func (p *Predictor) PredictAll(graphs []*graph.Graph) []int {
	return p.PredictAllWorkers(graphs, 0)
}

// PredictAllWorkers is PredictAll with an explicit worker count, following
// the parallel.Workers convention: non-positive uses all cores, and
// workers == 1 classifies sequentially on the calling goroutine (timing
// fidelity). Note this differs from CrossValidateOptions.Workers, whose
// zero value stays sequential.
func (p *Predictor) PredictAllWorkers(graphs []*graph.Graph, workers int) []int {
	p.enc.reserveFor(graphs)
	out := make([]int, len(graphs))
	chunks := (len(graphs) + encodeBatchChunk - 1) / encodeBatchChunk
	w := parallel.Workers(workers, chunks)
	parallel.ForEachChunk(w, len(graphs), encodeBatchChunk, func(_, lo, hi int) {
		p.PredictBatchTraced(graphs[lo:hi], out[lo:hi], nil)
	})
	return out
}

// Similarities returns δ(Enc(g), C_i) for every class i: exactly the
// cosine values the bipolar reference path reports, computed as
// 1 - 2*Hamming/d in the packed domain.
func (p *Predictor) Similarities(g *graph.Graph) []float64 {
	s := p.enc.getScratch()
	defer p.enc.putScratch(s)
	return p.pm.Similarities(s.EncodeGraphPacked(g))
}

// SimilaritiesEncoded returns the class similarities of an already packed
// query hypervector.
func (p *Predictor) SimilaritiesEncoded(hv *hdc.Binary) []float64 {
	return p.pm.Similarities(hv)
}
