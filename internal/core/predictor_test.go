package core

import (
	"bytes"
	"fmt"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"graphhd/internal/dataset"
	"graphhd/internal/graph"
	"graphhd/internal/hdc"
)

func TestEncodeGraphPackedMatchesEncodeGraph(t *testing.T) {
	enc := MustNewEncoder(testConfig())
	rng := hdc.NewRNG(41)
	graphs := []*graph.Graph{
		graph.ErdosRenyi(25, 0.2, rng),
		graph.BarabasiAlbert(20, 2, rng),
		graph.Ring(12),
		graph.Star(9),
		graph.NewBuilder(5).Build(), // edgeless
		graph.NewBuilder(0).Build(), // empty
	}
	for i, g := range graphs {
		if !enc.EncodeGraphPacked(g).Equal(enc.EncodeGraph(g).PackBinary()) {
			t.Fatalf("graph %d: packed encoding differs from packed reference", i)
		}
	}
}

func TestEncodeGraphPackedLabeled(t *testing.T) {
	cfg := testConfig()
	cfg.UseVertexLabels = true
	enc := MustNewEncoder(cfg)
	b := graph.NewBuilder(4)
	b.MustAddEdge(0, 1)
	b.MustAddEdge(1, 2)
	b.MustAddEdge(2, 3)
	if err := b.SetVertexLabels([]int{0, 1, 0, 1}); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	want := enc.encodeGraphSlow(g).PackBinary()
	if !enc.EncodeGraphPacked(g).Equal(want) || !enc.EncodeGraph(g).PackBinary().Equal(want) {
		t.Fatal("labeled encoding differs from the int8 reference")
	}
}

// TestPackedPredictorMatchesReference is the tentpole equivalence
// guarantee: on every synthetic Table-I dataset, the packed predictor's
// Predict and Similarities must match the int8 reference pipeline with
// BipolarClassVectors: true — the majority-voted semantics the snapshot
// freezes — bit for bit and float for float.
func TestPackedPredictorMatchesReference(t *testing.T) {
	for _, name := range dataset.Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			count := 24
			if name == "DD" { // DD graphs are ~25× larger than the rest
				count = 8
			}
			ds, err := dataset.Generate(name, dataset.Options{Seed: 7, GraphCount: count})
			if err != nil {
				t.Fatal(err)
			}
			cfg := testConfig()
			cfg.Dimension = 1024
			cfg.BipolarClassVectors = true
			m, err := Train(cfg, ds.Graphs, ds.Labels)
			if err != nil {
				t.Fatal(err)
			}
			pred := m.Snapshot()
			for i, g := range ds.Graphs {
				if got, want := pred.Predict(g), m.Predict(g); got != want {
					t.Fatalf("graph %d: packed %d, reference %d", i, got, want)
				}
				gotS, wantS := pred.Similarities(g), m.Similarities(g)
				for c := range wantS {
					if gotS[c] != wantS[c] {
						t.Fatalf("graph %d class %d: packed sim %v, reference %v", i, c, gotS[c], wantS[c])
					}
				}
			}
			batch := pred.PredictAll(ds.Graphs)
			for i := range batch {
				if batch[i] != m.Predict(ds.Graphs[i]) {
					t.Fatalf("batch graph %d differs from reference", i)
				}
			}
		})
	}
}

func TestSnapshotFreezesState(t *testing.T) {
	gs, ys := twoClassDataset(10, 51)
	m, err := Train(testConfig(), gs, ys)
	if err != nil {
		t.Fatal(err)
	}
	pred := m.Snapshot()
	before := make([]*hdc.Binary, m.NumClasses())
	for c := range before {
		before[c] = pred.ClassVector(c).Clone()
	}
	// Further learning must not leak into the snapshot.
	moreG, moreY := twoClassDataset(5, 52)
	for i, g := range moreG {
		if _, err := m.Learn(g, moreY[i]); err != nil {
			t.Fatal(err)
		}
	}
	for c := range before {
		if !pred.ClassVector(c).Equal(before[c]) {
			t.Fatalf("snapshot class %d changed after Learn", c)
		}
	}
	// A fresh snapshot picks the updates up.
	if m.Snapshot().ClassVector(0).Equal(before[0]) &&
		m.Snapshot().ClassVector(1).Equal(before[1]) {
		t.Fatal("fresh snapshot identical to stale one after 10 updates")
	}
}

func TestPredictPackedMatchesBipolarPredict(t *testing.T) {
	cfg := testConfig()
	cfg.BipolarClassVectors = true
	gs, ys := twoClassDataset(15, 53)
	m, err := Train(cfg, gs, ys)
	if err != nil {
		t.Fatal(err)
	}
	testG, _ := twoClassDataset(10, 54)
	for i, g := range testG {
		if m.PredictPacked(g) != m.Predict(g) {
			t.Fatalf("graph %d: PredictPacked differs from Predict in bipolar mode", i)
		}
	}
	// And it must track online updates.
	if _, err := m.Learn(testG[0], 0); err != nil {
		t.Fatal(err)
	}
	for i, g := range testG {
		if m.PredictPacked(g) != m.Predict(g) {
			t.Fatalf("graph %d after update: PredictPacked stale", i)
		}
	}
}

func TestPredictorRoundTrip(t *testing.T) {
	gs, ys := twoClassDataset(15, 55)
	m, err := Train(testConfig(), gs, ys)
	if err != nil {
		t.Fatal(err)
	}
	pred := m.Snapshot()
	var buf bytes.Buffer
	n, err := pred.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if int64(buf.Len()) != n {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	// Packed record is dramatically smaller than the full model.
	var full bytes.Buffer
	if _, err := m.WriteTo(&full); err != nil {
		t.Fatal(err)
	}
	if buf.Len()*16 > full.Len() {
		t.Fatalf("packed record %d bytes vs full %d: expected ≥16× smaller", buf.Len(), full.Len())
	}
	p2, err := ReadPredictor(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Encoder().Config() != m.enc.Config() {
		t.Fatal("config did not round trip")
	}
	testG, _ := twoClassDataset(10, 56)
	for i, g := range testG {
		if pred.Predict(g) != p2.Predict(g) {
			t.Fatalf("graph %d: prediction changed after round trip", i)
		}
		a, b := pred.Similarities(g), p2.Similarities(g)
		for c := range a {
			if a[c] != b[c] {
				t.Fatalf("graph %d class %d: similarity changed after round trip", i, c)
			}
		}
	}
	for c := 0; c < pred.NumClasses(); c++ {
		if !pred.ClassVector(c).Equal(p2.ClassVector(c)) {
			t.Fatalf("class %d vector differs after round trip", c)
		}
	}
}

func TestReadPredictorAcceptsFullModelRecord(t *testing.T) {
	gs, ys := twoClassDataset(10, 57)
	m, err := Train(testConfig(), gs, ys)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	pred, err := ReadPredictor(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := m.Snapshot()
	for c := 0; c < want.NumClasses(); c++ {
		if !pred.ClassVector(c).Equal(want.ClassVector(c)) {
			t.Fatalf("class %d differs from direct snapshot", c)
		}
	}
}

func TestPredictorSaveLoadFile(t *testing.T) {
	gs, ys := twoClassDataset(10, 58)
	m, err := Train(testConfig(), gs, ys)
	if err != nil {
		t.Fatal(err)
	}
	pred := m.Snapshot()
	path := filepath.Join(t.TempDir(), "model.ghdp")
	if err := pred.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	p2, err := LoadPredictorFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range gs {
		if pred.Predict(g) != p2.Predict(g) {
			t.Fatal("file round trip changed predictions")
		}
	}
	if _, err := LoadPredictorFile(filepath.Join(t.TempDir(), "nope.ghdp")); err == nil {
		t.Fatal("expected missing-file error")
	}
}

func TestReadPredictorRejectsGarbageAndTruncation(t *testing.T) {
	if _, err := ReadPredictor(bytes.NewReader([]byte("NOTMAGIC________"))); err == nil {
		t.Fatal("bad magic accepted")
	}
	gs, ys := twoClassDataset(5, 59)
	m, err := Train(testConfig(), gs, ys)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := m.Snapshot().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{4, 20, len(full) / 2, len(full) - 1} {
		if _, err := ReadPredictor(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestPredictorMemoryBytes(t *testing.T) {
	gs, ys := twoClassDataset(5, 60)
	m, err := Train(testConfig(), gs, ys) // d = 2048, k = 2
	if err != nil {
		t.Fatal(err)
	}
	if got := m.MemoryBytes(); got != 2*2048*4 {
		t.Fatalf("model MemoryBytes = %d", got)
	}
	pred := m.Snapshot()
	if got := pred.MemoryBytes(); got != 2*(2048/64)*8 {
		t.Fatalf("predictor MemoryBytes = %d", got)
	}
	if 32*pred.MemoryBytes() != m.MemoryBytes() {
		t.Fatal("packed footprint should be exactly 32× smaller at word-aligned d")
	}
}

// TestEncodeEdgeUsesOnlyEndpointVectors: under the labeled extension a
// one-edge graph encodes to the bind of its endpoints' (rank, label)
// vectors, and the label of a vertex on no edge does not reach the
// encoding.
func TestEncodeEdgeUsesOnlyEndpointVectors(t *testing.T) {
	cfg := testConfig()
	cfg.UseVertexLabels = true
	enc := MustNewEncoder(cfg)
	build := func(isolated int) *graph.Graph {
		b := graph.NewBuilder(3)
		b.MustAddEdge(0, 1)
		if err := b.SetVertexLabels([]int{4, 5, isolated}); err != nil {
			t.Fatal(err)
		}
		return b.Build()
	}
	g := build(6)
	ranks := enc.Ranks(g)
	edge := enc.rankLabelVector(ranks[0], 4).Bind(enc.rankLabelVector(ranks[1], 5))
	if !enc.EncodeGraph(g).Equal(edge) {
		t.Fatal("a one-edge labeled graph does not encode to the bind of its endpoint vectors")
	}
	if !enc.EncodeGraphPacked(build(7)).Equal(edge.PackBinary()) {
		t.Fatal("the label of an isolated vertex changed the encoding")
	}
}

// TestLabeledPredictConcurrent runs labeled predicts from four
// goroutines on one predictor, so one encoder, against answers computed
// one at a time; run it under -race. Each goroutine fills (rank, label)
// tables in its own pooled scratches.
func TestLabeledPredictConcurrent(t *testing.T) {
	cfg := testConfig()
	cfg.UseVertexLabels = true
	gs, ys := twoClassDataset(12, 63)
	for i := range gs {
		gs[i] = labeledCopy(t, gs[i], i)
	}
	m, err := Train(cfg, gs, ys)
	if err != nil {
		t.Fatal(err)
	}
	pred := m.Snapshot()
	want := make([]int, len(gs))
	for i, g := range gs {
		want[i] = pred.PredictEncoded(m.enc.encodeGraphSlow(g).PackBinary())
	}
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := pred.Encoder().NewScratch()
			out := make([]int, len(gs))
			for round := range 3 {
				for i := range gs {
					j := (i + w) % len(gs)
					if c := pred.Predict(gs[j]); c != want[j] {
						errs <- fmt.Sprintf("worker %d round %d: graph %d class %d, want %d", w, round, j, c, want[j])
						return
					}
				}
				pred.PredictBatchWith(s, gs, out)
				if !slices.Equal(out, want) {
					errs <- fmt.Sprintf("worker %d round %d: batch classes differ", w, round)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
