package core

import (
	"errors"
	"fmt"

	"graphhd/internal/graph"
	"graphhd/internal/hdc"
)

// ErrNonPositiveEpochs is returned by Retrain when opts.Epochs <= 0.
// Earlier versions silently substituted a default of 5 epochs, which made
// a zero-valued RetrainOptions indistinguishable from an explicit request
// — callers that compute an epoch budget and arrive at zero now hear
// about it instead of burning five passes.
var ErrNonPositiveEpochs = errors.New("core: retrain epochs must be positive")

// This file implements the paper's Future Work direction 1: trading some
// of GraphHD's efficiency for accuracy through techniques already known in
// HDC — perceptron-style retraining and multiple class vectors (prototypes)
// per class.

// RetrainOptions configures Retrain.
type RetrainOptions struct {
	// Epochs is the maximum number of passes over the training set. It
	// must be positive; Retrain returns ErrNonPositiveEpochs otherwise.
	Epochs int
	// Shuffle, when non-nil, permutes the sample order each epoch using
	// the given seed; nil keeps input order (deterministic either way).
	ShuffleSeed *uint64
}

// Retrain runs perceptron-style HDC retraining on a fitted model: for each
// training sample, if the model misclassifies it, the encoded hypervector
// is added to the correct class accumulator and subtracted from the
// mispredicted one. Each graph is encoded once, into a packed vector of
// d/8 bytes kept for every epoch. Labels are validated like Fit's before
// anything is encoded.
//
// Contract: the returned slice holds the number of corrective updates per
// epoch actually run, in epoch order. Training stops early once an epoch
// is error-free, so len(updates) may be anywhere in [1, opts.Epochs] —
// callers must iterate over the returned slice, never assume
// len(updates) == opts.Epochs. Each corrective update bumps the model's
// revision counter (see Revision).
func (m *Model) Retrain(graphs []*graph.Graph, labels []int, opts RetrainOptions) ([]int, error) {
	if err := checkLabels(graphs, labels, m.k); err != nil {
		return nil, err
	}
	if opts.Epochs <= 0 {
		return nil, fmt.Errorf("%w (got %d)", ErrNonPositiveEpochs, opts.Epochs)
	}
	epochs := opts.Epochs
	encoded := make([]*hdc.Binary, len(graphs))
	m.enc.encodeChunks(graphs, func(lo int, outs []*hdc.Binary) {
		for i, hv := range outs {
			encoded[lo+i] = hv.Clone()
		}
	})
	order := make([]int, len(graphs))
	for i := range order {
		order[i] = i
	}
	var rng *hdc.RNG
	if opts.ShuffleSeed != nil {
		rng = hdc.NewRNG(*opts.ShuffleSeed)
	}
	var updates []int
	for ep := 0; ep < epochs; ep++ {
		if rng != nil {
			perm := rng.Perm(len(order))
			for i := range order {
				order[i] = perm[i]
			}
		}
		n := 0
		for _, i := range order {
			m.am.Refresh()
			pred := m.am.Classify(encoded[i])
			if pred != labels[i] {
				m.am.Learn(labels[i], encoded[i])
				m.am.Unlearn(pred, encoded[i])
				n++
			}
		}
		updates = append(updates, n)
		if n > 0 {
			m.rev.Add(uint64(n))
		}
		if n == 0 {
			break
		}
	}
	return updates, nil
}

// OnlineUpdate applies one perceptron-style update from a single labeled
// graph: encode, classify, and — only if mispredicted — bundle the
// hypervector into the correct class and subtract it from the mispredicted
// one, exactly the per-sample step Retrain runs in bulk. It reports
// whether the model changed; a corrective update bumps the revision
// counter. This is the streaming-feedback primitive: pair it with
// PredictPacked for serving-side online learning. The graph is encoded
// packed on a pooled scratch and the update adds ±1 per component straight
// into the int32 sums; on unlabeled graphs a warmed call allocates
// nothing, corrective or not. Like all training methods, it requires
// single-writer discipline: one goroutine mutates the model, and queries
// must not overlap it.
func (m *Model) OnlineUpdate(g *graph.Graph, label int) (bool, error) {
	if err := checkLabel(label, m.k); err != nil {
		return false, err
	}
	s := m.enc.getScratch()
	defer m.enc.putScratch(s)
	hv := s.EncodeGraphPacked(g)
	m.am.Refresh()
	pred := m.am.Classify(hv)
	if pred == label {
		return false, nil
	}
	m.am.Learn(label, hv)
	m.am.Unlearn(pred, hv)
	m.rev.Add(1)
	return true, nil
}

// MultiPrototypeModel extends GraphHD with multiple class vectors per
// class. Each class holds up to protos accumulators; a training sample is
// bundled into the most similar prototype of its class (or a fresh one if
// capacity remains), and inference takes the best similarity over all
// prototypes of each class. This is the second accuracy-for-efficiency
// trade suggested by the paper's future work.
type MultiPrototypeModel struct {
	enc    *Encoder
	k      int
	protos int
	accs   [][]*hdc.Accumulator // accs[class][prototype]
}

// NewMultiPrototypeModel returns an untrained multi-prototype model with
// up to protos prototypes for each of k classes.
func NewMultiPrototypeModel(enc *Encoder, k, protos int) (*MultiPrototypeModel, error) {
	if k <= 0 {
		return nil, fmt.Errorf("core: non-positive class count %d", k)
	}
	if protos <= 0 {
		return nil, fmt.Errorf("core: non-positive prototype count %d", protos)
	}
	return &MultiPrototypeModel{
		enc:    enc,
		k:      k,
		protos: protos,
		accs:   make([][]*hdc.Accumulator, k),
	}, nil
}

// NumClasses returns the number of classes.
func (m *MultiPrototypeModel) NumClasses() int { return m.k }

// NumPrototypes returns the number of prototypes currently allocated for
// class c.
func (m *MultiPrototypeModel) NumPrototypes(c int) int { return len(m.accs[c]) }

// Fit trains on the whole set in input order. Labels are validated like
// Model.Fit's before any graph is learned, so a rejected set leaves the
// model untouched.
func (m *MultiPrototypeModel) Fit(graphs []*graph.Graph, labels []int) error {
	if err := checkLabels(graphs, labels, m.k); err != nil {
		return err
	}
	for i, g := range graphs {
		if err := m.Learn(g, labels[i]); err != nil {
			return err
		}
	}
	return nil
}

// Learn bundles one labeled graph into the nearest prototype of its class,
// creating a new prototype while capacity remains. The graph is encoded
// packed and compared by the packed int32 cosine.
func (m *MultiPrototypeModel) Learn(g *graph.Graph, label int) error {
	if err := checkLabel(label, m.k); err != nil {
		return err
	}
	s := m.enc.getScratch()
	defer m.enc.putScratch(s)
	hv := s.EncodeGraphPacked(g)
	ps := m.accs[label]
	if len(ps) < m.protos {
		acc := hdc.NewAccumulator(m.enc.Dimension())
		acc.AddPacked(hv, 1)
		m.accs[label] = append(ps, acc)
		return nil
	}
	best, bestSim := 0, ps[0].CosineToSumsPacked(hv)
	for i := 1; i < len(ps); i++ {
		if s := ps[i].CosineToSumsPacked(hv); s > bestSim {
			best, bestSim = i, s
		}
	}
	ps[best].AddPacked(hv, 1)
	return nil
}

// Predict returns the class whose best prototype is most similar to
// Enc(g). Classes with no prototypes are skipped; an untrained model
// predicts class 0.
func (m *MultiPrototypeModel) Predict(g *graph.Graph) int {
	s := m.enc.getScratch()
	defer m.enc.putScratch(s)
	hv := s.EncodeGraphPacked(g)
	bestClass, bestSim := 0, -2.0
	for c, ps := range m.accs {
		for _, p := range ps {
			if s := p.CosineToSumsPacked(hv); s > bestSim {
				bestClass, bestSim = c, s
			}
		}
	}
	return bestClass
}

// PredictAll classifies a batch of graphs, preserving order.
func (m *MultiPrototypeModel) PredictAll(graphs []*graph.Graph) []int {
	out := make([]int, len(graphs))
	for i, g := range graphs {
		out[i] = m.Predict(g)
	}
	return out
}
