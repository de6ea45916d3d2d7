package core

import (
	"bytes"
	"testing"

	"graphhd/internal/graph"
)

// FuzzReadPredictor is the fuzz target for the model-artifact reader, the
// byte surface graphhd-serve exposes through -models, SIGHUP and
// POST /admin/models. Whatever the bytes, ReadPredictor must never panic;
// any predictor it returns must classify a small graph into one of its
// classes and must be a WriteTo fixpoint: writing it, reading that back
// and writing again reproduces the same bytes. (The input itself is not
// compared — a GRAPHHD1 record reads as a snapshot and writes as a packed
// record, and unused flag bits normalize on write.)
//
// The seed corpus under testdata/fuzz/FuzzReadPredictor holds one valid
// record of each version, GRAPHHD1 to GRAPHHD4, at dimension 128. Two
// more seeds, built here, carry a (dprefix, margin) pair wider than the
// model: a GRAPHHD3 record and a GRAPHHD4 record. Run with
// `go test -fuzz FuzzReadPredictor ./internal/core` for continuous
// fuzzing.
func FuzzReadPredictor(f *testing.F) {
	g, err := graph.FromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}})
	if err != nil {
		f.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Dimension = 128
	gs, ys := twoClassDataset(4, 3)
	m, err := Train(cfg, gs, ys)
	if err != nil {
		f.Fatal(err)
	}
	var rec2 bytes.Buffer
	if _, err := m.Snapshot().WriteTo(&rec2); err != nil {
		f.Fatal(err)
	}
	f.Add(spliceRecord(rec2.Bytes(), "GRAPHHD3", uint32(1024), uint32(12)))
	f.Add(spliceRecord(rec2.Bytes(), "GRAPHHD4", uint64(1), uint32(1024), uint32(12)))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ReadPredictor(bytes.NewReader(data))
		if err != nil {
			return // rejected inputs must only ever error, not panic
		}
		if c := p.Predict(g); c < 0 || c >= p.NumClasses() {
			t.Fatalf("predicted class %d of %d", c, p.NumClasses())
		}
		var first, second bytes.Buffer
		if _, err := p.WriteTo(&first); err != nil {
			t.Fatal(err)
		}
		p2, err := ReadPredictor(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("written predictor does not read back: %v", err)
		}
		if _, err := p2.WriteTo(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("WriteTo is not a fixpoint: %d bytes then %d bytes", first.Len(), second.Len())
		}
	})
}

// FuzzReadModel is the fuzz target for the trainable GRAPHHD1 record that
// graphhd-serve's -feedback-model loads. Whatever the bytes, ReadModel
// must never panic; any model it returns must classify a small graph into
// one of its classes and be a WriteTo fixpoint: writing it, reading that
// back and writing again reproduces the same bytes.
//
// The seed corpus under testdata/fuzz/FuzzReadModel holds one valid
// record at dimension 128. Run with `go test -fuzz FuzzReadModel
// ./internal/core` for continuous fuzzing.
func FuzzReadModel(f *testing.F) {
	g, err := graph.FromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadModel(bytes.NewReader(data))
		if err != nil {
			return // rejected inputs must only ever error, not panic
		}
		if c := m.Predict(g); c < 0 || c >= m.NumClasses() {
			t.Fatalf("predicted class %d of %d", c, m.NumClasses())
		}
		var first, second bytes.Buffer
		if _, err := m.WriteTo(&first); err != nil {
			t.Fatal(err)
		}
		m2, err := ReadModel(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("written model does not read back: %v", err)
		}
		if _, err := m2.WriteTo(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("WriteTo is not a fixpoint: %d bytes then %d bytes", first.Len(), second.Len())
		}
	})
}
