package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"graphhd/internal/centrality"
	"graphhd/internal/dataset"
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

// TestReadRejectsHostileHeaderFields covers header fields that parse but
// must not load: a NaN damping factor (which slips past a plain range
// check), a damping of 0 (which PageRank would read as 0.85), a
// PageRank iteration count so large that every predict
// would pin a worker for minutes, and an unknown centrality metric
// (which would rank with PageRank and report "unknown"). Both readers
// are checked on a GRAPHHD1 and a GRAPHHD2 record, and the iteration cap
// is checked at its edge.
func TestReadRejectsHostileHeaderFields(t *testing.T) {
	gs, ys := twoClassDataset(5, 37)
	m, err := Train(testConfig(), gs, ys)
	if err != nil {
		t.Fatal(err)
	}
	var full, packed bytes.Buffer
	if _, err := m.WriteTo(&full); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Snapshot().WriteTo(&packed); err != nil {
		t.Fatal(err)
	}
	// Header offsets: magic 0, dim 8, prIters 12, damping 16, seed 24,
	// flags 32, metric 36.
	patch := func(rec []byte, off int, v any) []byte {
		out := bytes.Clone(rec)
		var b bytes.Buffer
		if err := binary.Write(&b, binary.LittleEndian, v); err != nil {
			t.Fatal(err)
		}
		copy(out[off:], b.Bytes())
		return out
	}
	readModel := func(b []byte) error { _, err := ReadModel(bytes.NewReader(b)); return err }
	readPredictor := func(b []byte) error { _, err := ReadPredictor(bytes.NewReader(b)); return err }
	for _, c := range []struct {
		name string
		read func([]byte) error
		rec  []byte
	}{
		{"ReadModel/GRAPHHD1", readModel, full.Bytes()},
		{"ReadPredictor/GRAPHHD1", readPredictor, full.Bytes()},
		{"ReadPredictor/GRAPHHD2", readPredictor, packed.Bytes()},
	} {
		if err := c.read(patch(c.rec, 16, math.NaN())); err == nil || !strings.Contains(err.Error(), "damping") {
			t.Errorf("%s: NaN damping: err = %v, want a damping error", c.name, err)
		}
		if err := c.read(patch(c.rec, 16, 0.0)); err == nil || !strings.Contains(err.Error(), "damping") {
			t.Errorf("%s: damping 0: err = %v, want a damping error", c.name, err)
		}
		if err := c.read(patch(c.rec, 12, uint32(math.MaxUint32))); err == nil || !strings.Contains(err.Error(), "iteration") {
			t.Errorf("%s: 2^32-1 iterations: err = %v, want an iteration-count error", c.name, err)
		}
		if err := c.read(patch(c.rec, 12, uint32(maxPageRankIterations+1))); err == nil {
			t.Errorf("%s: %d iterations loaded", c.name, maxPageRankIterations+1)
		}
		if err := c.read(patch(c.rec, 12, uint32(maxPageRankIterations))); err != nil {
			t.Errorf("%s: %d iterations (the cap) refused: %v", c.name, maxPageRankIterations, err)
		}
		for _, metric := range []uint32{uint32(centrality.Closeness) + 1, 9, math.MaxUint32} {
			if err := c.read(patch(c.rec, 36, metric)); err == nil || !strings.Contains(err.Error(), "centrality") {
				t.Errorf("%s: metric %d: err = %v, want a centrality error", c.name, metric, err)
			}
		}
		if err := c.read(patch(c.rec, 36, uint32(centrality.Closeness))); err != nil {
			t.Errorf("%s: closeness metric refused: %v", c.name, err)
		}
	}
}

// failingWriterTo writes the first half of data, then fails — a save
// interrupted part-way through.
type failingWriterTo struct{ data []byte }

func (f failingWriterTo) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(f.data[:len(f.data)/2])
	if err == nil {
		err = errors.New("injected write failure")
	}
	return int64(n), err
}

// TestSaveFileIsAtomic checks that a save which fails part-way leaves the
// previous artifact byte-identical and no temporary file behind, and that
// a successful save replaces the artifact the same way.
func TestSaveFileIsAtomic(t *testing.T) {
	gs, ys := twoClassDataset(5, 38)
	m, err := Train(testConfig(), gs, ys)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "m.ghdp")
	if err := m.Snapshot().SaveFile(path); err != nil {
		t.Fatal(err)
	}
	old, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	onlyArtifact := func(when string) {
		t.Helper()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 || entries[0].Name() != "m.ghdp" {
			names := make([]string, len(entries))
			for i, e := range entries {
				names[i] = e.Name()
			}
			t.Fatalf("%s: directory holds %v, want only m.ghdp", when, names)
		}
	}

	if err := writeFileAtomic(path, failingWriterTo{old}); err == nil {
		t.Fatal("failing save reported success")
	}
	now, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(now, old) {
		t.Fatal("failed save changed the previous artifact")
	}
	onlyArtifact("after a failed save")

	// A successful save replaces the record (here with a GRAPHHD1 model).
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	onlyArtifact("after a successful save")
	if _, err := LoadModelFile(path); err != nil {
		t.Fatalf("replaced artifact does not load: %v", err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Mode().Perm() != 0o644 {
		t.Fatalf("artifact mode %v, want 0644", fi.Mode().Perm())
	}

	// A save into a missing directory fails cleanly.
	if err := m.SaveFile(filepath.Join(dir, "missing", "m.ghd")); err == nil {
		t.Fatal("save into a missing directory succeeded")
	}
}

// headerBytes is the length of the shared record header: 8 magic + 4 dim
// + 4 prIters + 8 damping + 8 seed + 4 flags + 4 metric + 4 k.
const headerBytes = 44

// spliceRecord returns the GRAPHHD2 record rec with its magic replaced
// and fields inserted between the header and the class words, the
// layout of the GRAPHHD3 and GRAPHHD4 records.
func spliceRecord(rec []byte, magic string, fields ...any) []byte {
	var buf bytes.Buffer
	buf.WriteString(magic)
	buf.Write(rec[8:headerBytes])
	for _, f := range fields {
		if err := binary.Write(&buf, binary.LittleEndian, f); err != nil {
			panic(err)
		}
	}
	buf.Write(rec[headerBytes:])
	return buf.Bytes()
}

// TestLegacyCascadeRecordsServeFullWidth pins how records that carry a
// two-stage classifier's (dprefix, margin) pair load: a GRAPHHD3 record
// and a GRAPHHD4 record with a non-zero pair both read with the pair
// ignored and predict every NCI1 test graph as the GRAPHHD2 predictor
// does. Saved again, the GRAPHHD3 record gives the GRAPHHD2 bytes and
// the GRAPHHD4 record the same record with a zero pair.
func TestLegacyCascadeRecordsServeFullWidth(t *testing.T) {
	ds := dataset.MustGenerate("NCI1", dataset.Options{Seed: 1, GraphCount: 240})
	train, test := ds.Graphs[:180], ds.Graphs[180:]
	m, err := Train(DefaultConfig(), train, ds.Labels[:180])
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := m.Snapshot().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	rec2 := buf.Bytes()
	if got := string(rec2[:8]); got != "GRAPHHD2" {
		t.Fatalf("snapshot magic = %q, want GRAPHHD2", got)
	}
	full, err := ReadPredictor(bytes.NewReader(rec2))
	if err != nil {
		t.Fatal(err)
	}
	want := full.PredictAll(test)

	const revision = 5
	for _, c := range []struct {
		name     string
		rec, out []byte
		revision uint64
	}{
		{"GRAPHHD3", spliceRecord(rec2, "GRAPHHD3", uint32(1024), uint32(12)), rec2, 0},
		{"GRAPHHD4", spliceRecord(rec2, "GRAPHHD4", uint64(revision), uint32(1024), uint32(12)),
			spliceRecord(rec2, "GRAPHHD4", uint64(revision), uint32(0), uint32(0)), revision},
	} {
		p, err := ReadPredictor(bytes.NewReader(c.rec))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if p.Revision() != c.revision {
			t.Fatalf("%s: revision %d, want %d", c.name, p.Revision(), c.revision)
		}
		for i, cls := range p.PredictAll(test) {
			if cls != want[i] {
				t.Fatalf("%s: test graph %d predicted %d, GRAPHHD2 predictor %d", c.name, i, cls, want[i])
			}
		}
		var out bytes.Buffer
		if _, err := p.WriteTo(&out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), c.out) {
			t.Fatalf("%s: saved again as %q, %d bytes, want %q, %d bytes",
				c.name, out.Bytes()[:8], out.Len(), c.out[:8], len(c.out))
		}
	}
}
