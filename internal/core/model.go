package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"graphhd/internal/graph"
	"graphhd/internal/hdc"
	"graphhd/internal/parallel"
)

// Model is a trained GraphHD classifier: one class vector per class held
// in an associative memory (Section III-B/C of the paper). Create one with
// Train or NewModel+Fit.
type Model struct {
	enc *Encoder
	am  *hdc.AssociativeMemory
	k   int
	// rev counts corrective online updates (Learn, OnlineUpdate, and
	// Retrain) applied after initial fitting. Snapshot stamps the current
	// value into the vended Predictor, so a snapshot taken before an
	// update round is distinguishable from the live model: skew shows up
	// as Model.Revision() > Predictor.Revision(). Fit/Train do not bump
	// it — a freshly fitted model is revision 0.
	rev atomic.Uint64
}

// NewModel returns an untrained model for k classes using encoder enc.
func NewModel(enc *Encoder, k int) (*Model, error) {
	if k <= 0 {
		return nil, fmt.Errorf("core: non-positive class count %d", k)
	}
	cfg := enc.Config()
	seeds := hdc.NewRNG(cfg.Seed ^ 0x5eed)
	return &Model{
		enc: enc,
		am:  hdc.NewAssociativeMemory(k, cfg.Dimension, seeds.Uint64(), cfg.BipolarClassVectors),
		k:   k,
	}, nil
}

// Encoder returns the model's encoder.
func (m *Model) Encoder() *Encoder { return m.enc }

// NumClasses returns the number of classes.
func (m *Model) NumClasses() int { return m.k }

// ClassVector returns the majority-voted bipolar class vector of class c.
func (m *Model) ClassVector(c int) *hdc.Bipolar { return m.am.ClassVector(c) }

// checkLabel rejects a label outside [0, k).
func checkLabel(label, k int) error {
	if label < 0 || label >= k {
		return fmt.Errorf("core: label %d out of range [0,%d)", label, k)
	}
	return nil
}

// checkLabels is checkLabel over a training set, with Fit's length check.
func checkLabels(graphs []*graph.Graph, labels []int, k int) error {
	if len(graphs) != len(labels) {
		return fmt.Errorf("core: %d graphs but %d labels", len(graphs), len(labels))
	}
	for _, l := range labels {
		if err := checkLabel(l, k); err != nil {
			return err
		}
	}
	return nil
}

// Learn encodes one labeled graph and bundles it into its class vector —
// the HDC online-learning primitive. It returns a copy of the packed
// graph-hypervector so callers (e.g. retraining loops) can reuse the
// encoding. Each call bumps the model revision.
func (m *Model) Learn(g *graph.Graph, label int) (*hdc.Binary, error) {
	if err := checkLabel(label, m.k); err != nil {
		return nil, err
	}
	s := m.enc.getScratch()
	defer m.enc.putScratch(s)
	hv := s.EncodeGraphPacked(g)
	m.am.Learn(label, hv)
	m.rev.Add(1)
	return hv.Clone(), nil
}

// Revision returns the number of online updates applied to the model since
// initial fitting. Compare against Predictor.Revision to detect a stale
// snapshot serving pre-update class vectors.
func (m *Model) Revision() uint64 { return m.rev.Load() }

// Fit trains on the whole set in the packed domain, across GOMAXPROCS
// goroutines (HDC operations are dimension-independent, the parallelism
// the paper highlights). Its work items are one-class chunks (see
// classChunks): each gathers up to 32 graphs of one class, encodes them
// as one batch, bundles the encodings in the chunk scratch's counter
// through the carry-save front end, and folds them into its class's
// int32 sums once, as sᵢ += 2·countᵢ − n. No int8 hypervector is built.
// Integer sums do not depend on the order of the folds, so the trained
// model is identical to sequential Learn calls.
func (m *Model) Fit(graphs []*graph.Graph, labels []int) error {
	if err := checkLabels(graphs, labels, m.k); err != nil {
		return err
	}
	chunks := classChunks(labels, m.k)
	m.enc.reserveFor(graphs)
	var mu sync.Mutex
	parallel.ForEach(0, len(chunks), func(i int) {
		ch := chunks[i]
		s := m.enc.getScratch()
		gs := s.chunk[:0]
		for j := ch.lo; j < ch.hi; j++ {
			if labels[j] == ch.class {
				gs = append(gs, graphs[j])
			}
		}
		s.EncodeBatch(gs)
		s.bundleRows(s.outSlab, len(gs))
		clear(gs) // a pooled scratch must not pin the training set
		mu.Lock()
		m.am.AddCounter(ch.class, s.counter)
		mu.Unlock()
		m.enc.putScratch(s)
	})
	return nil
}

// fitChunk is one work item of Fit: the graphs of class class whose
// indices lie in [lo, hi), at most encodeBatchChunk of them.
type fitChunk struct {
	lo, hi, class int
}

// classChunks cuts a label array into Fit's one-class chunks in one pass:
// each class's graphs, in index order, are dealt into runs of
// encodeBatchChunk, and a chunk spans the indices from its run's first
// graph to its last. That makes ⌈n_c/32⌉ chunks for a class of n_c
// graphs, about len(labels)/32 + k in all. Labels must lie in [0, k).
func classChunks(labels []int, k int) []fitChunk {
	open := make([]fitChunk, k) // each class's run being filled
	fill := make([]int, k)      // and the graphs in it
	chunks := make([]fitChunk, 0, len(labels)/encodeBatchChunk+k)
	for i, c := range labels {
		if fill[c] == 0 {
			open[c] = fitChunk{lo: i, class: c}
		}
		open[c].hi = i + 1
		fill[c]++
		if fill[c] == encodeBatchChunk {
			chunks = append(chunks, open[c])
			fill[c] = 0
		}
	}
	for c, n := range fill {
		if n > 0 {
			chunks = append(chunks, open[c])
		}
	}
	return chunks
}

// Predict returns the predicted class of g: the class whose vector is most
// similar to Enc(g). The packed encoding runs on a pooled scratch and is
// never retained, so steady-state prediction of unlabeled graphs allocates
// nothing once the model's query snapshot is built.
func (m *Model) Predict(g *graph.Graph) int {
	s := m.enc.getScratch()
	defer m.enc.putScratch(s)
	return m.am.Classify(s.EncodeGraphPacked(g))
}

// PredictEncoded classifies an already encoded graph-hypervector, packed
// first.
func (m *Model) PredictEncoded(hv *hdc.Bipolar) int {
	return m.am.Classify(hv.PackBinary())
}

// PredictAll classifies a batch of graphs in parallel, preserving order:
// each chunk is encoded as one batch and classified by the goroutine that
// encoded it.
func (m *Model) PredictAll(graphs []*graph.Graph) []int {
	out := make([]int, len(graphs))
	m.enc.encodeChunks(graphs, func(lo int, outs []*hdc.Binary) {
		for i, hv := range outs {
			out[lo+i] = m.am.Classify(hv)
		}
	})
	return out
}

// Similarities returns δ(Enc(g), C_i) for every class i.
func (m *Model) Similarities(g *graph.Graph) []float64 {
	s := m.enc.getScratch()
	defer m.enc.putScratch(s)
	return m.am.Similarities(s.EncodeGraphPacked(g))
}

// PredictPacked classifies g entirely in the packed domain: bit-packed
// encoding, then a popcount-Hamming query against a lazily refreshed
// majority-voted snapshot of the class accumulators. Unlike Snapshot, the
// cached snapshot follows later Learn/Unlearn calls, which makes this the
// online-learning inference path. Predictions match Predict bit for bit
// when the model uses bipolar (majority-voted) class vectors.
func (m *Model) PredictPacked(g *graph.Graph) int {
	s := m.enc.getScratch()
	defer m.enc.putScratch(s)
	return m.am.ClassifyPacked(s.EncodeGraphPacked(g))
}

// MemoryBytes returns the bytes held by the int32 class accumulators, the
// model's training-time state (k × d × 4).
func (m *Model) MemoryBytes() int {
	return m.k * m.enc.Dimension() * 4
}

// Train is the one-call convenience API: build an encoder and model from
// cfg and fit the training set. k is inferred as max(label)+1.
func Train(cfg Config, graphs []*graph.Graph, labels []int) (*Model, error) {
	if len(graphs) == 0 {
		return nil, fmt.Errorf("core: empty training set")
	}
	k := 0
	for _, l := range labels {
		if l+1 > k {
			k = l + 1
		}
	}
	enc, err := NewEncoder(cfg)
	if err != nil {
		return nil, err
	}
	m, err := NewModel(enc, k)
	if err != nil {
		return nil, err
	}
	if err := m.Fit(graphs, labels); err != nil {
		return nil, err
	}
	return m, nil
}
