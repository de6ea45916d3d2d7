package core

import (
	"bytes"
	"encoding/binary"
	"path/filepath"
	"runtime"
	"testing"

	"graphhd/internal/centrality"
)

func TestModelRoundTrip(t *testing.T) {
	gs, ys := twoClassDataset(20, 31)
	m, err := Train(testConfig(), gs, ys)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := m.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if int64(buf.Len()) != n {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	m2, err := ReadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Identical predictions and similarities on fresh graphs.
	testG, _ := twoClassDataset(10, 131)
	for i, g := range testG {
		if m.Predict(g) != m2.Predict(g) {
			t.Fatalf("prediction mismatch on graph %d", i)
		}
		a, b := m.Similarities(g), m2.Similarities(g)
		for c := range a {
			if a[c] != b[c] {
				t.Fatalf("similarity mismatch class %d: %v vs %v", c, a[c], b[c])
			}
		}
	}
	// Class vectors identical bit for bit.
	for c := 0; c < m.NumClasses(); c++ {
		if !m.ClassVector(c).Equal(m2.ClassVector(c)) {
			t.Fatalf("class %d vector differs after round trip", c)
		}
	}
}

func TestModelRoundTripPreservesConfig(t *testing.T) {
	cfg := testConfig()
	cfg.BipolarClassVectors = true
	cfg.UseVertexLabels = true
	cfg.Centrality = centrality.Degree
	cfg.PageRankIterations = 7
	cfg.PageRankDamping = 0.9
	cfg.Seed = 1234
	gs, ys := twoClassDataset(5, 32)
	m, err := Train(cfg, gs, ys)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := ReadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := m2.Encoder().Config()
	if got != cfg {
		t.Fatalf("config round trip: got %+v, want %+v", got, cfg)
	}
}

func TestModelSaveLoadFile(t *testing.T) {
	gs, ys := twoClassDataset(10, 33)
	m, err := Train(testConfig(), gs, ys)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.ghd")
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	m2, err := LoadModelFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range gs {
		if m.Predict(g) != m2.Predict(g) {
			t.Fatal("file round trip changed predictions")
		}
	}
}

func TestLoadModelFileMissing(t *testing.T) {
	if _, err := LoadModelFile(filepath.Join(t.TempDir(), "nope.ghd")); err == nil {
		t.Fatal("expected error for missing file")
	}
}

func TestReadModelRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("short"),
		[]byte("NOTMAGIC________________________________"),
	}
	for i, c := range cases {
		if _, err := ReadModel(bytes.NewReader(c)); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestReadModelRejectsTruncated(t *testing.T) {
	gs, ys := twoClassDataset(5, 34)
	m, err := Train(testConfig(), gs, ys)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{10, 40, len(full) / 2, len(full) - 1} {
		if _, err := ReadModel(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestModelRoundTripSupportsOnlineContinuation(t *testing.T) {
	// A loaded model must keep learning: accumulators are live state.
	gs, ys := twoClassDataset(10, 35)
	m, err := Train(testConfig(), gs, ys)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := ReadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	moreG, moreY := twoClassDataset(5, 36)
	for i, g := range moreG {
		if _, err := m2.Learn(g, moreY[i]); err != nil {
			t.Fatal(err)
		}
	}
	// And the continued model should still classify well.
	c := 0
	for i, g := range gs {
		if m2.Predict(g) == ys[i] {
			c++
		}
	}
	if float64(c)/float64(len(gs)) < 0.8 {
		t.Fatal("continued model degraded")
	}
}

// TestReadRejectsOversizedHeaderCheaply pins the allocation bound of the
// artifact readers: a 44-byte record whose header claims dimension 2^24
// and 2^16 classes (4 TiB of int32 accumulators) must fail once its bytes
// run out, having allocated memory in proportion to what it read rather
// than to what it claimed.
func TestReadRejectsOversizedHeaderCheaply(t *testing.T) {
	header := func(magic string) []byte {
		var b bytes.Buffer
		b.WriteString(magic)
		for _, v := range []any{uint32(1 << 24), uint32(10), 0.85, uint64(1), uint32(0), uint32(0), uint32(1 << 16)} {
			if err := binary.Write(&b, binary.LittleEndian, v); err != nil {
				t.Fatal(err)
			}
		}
		if b.Len() != 44 {
			t.Fatalf("header is %d bytes, want 44", b.Len())
		}
		return b.Bytes()
	}
	const limit = 64 << 20
	for _, c := range []struct {
		name string
		read func([]byte) error
		rec  []byte
	}{
		{"ReadModel/GRAPHHD1", func(b []byte) error { _, err := ReadModel(bytes.NewReader(b)); return err }, header("GRAPHHD1")},
		{"ReadPredictor/GRAPHHD1", func(b []byte) error { _, err := ReadPredictor(bytes.NewReader(b)); return err }, header("GRAPHHD1")},
		{"ReadPredictor/GRAPHHD2", func(b []byte) error { _, err := ReadPredictor(bytes.NewReader(b)); return err }, header("GRAPHHD2")},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := c.read(c.rec)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: oversized header loaded", c.name)
		}
		if d := after.TotalAlloc - before.TotalAlloc; d > limit {
			t.Fatalf("%s: allocated %d bytes before failing, want under %d", c.name, d, limit)
		}
	}
}
