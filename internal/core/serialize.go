package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"graphhd/internal/centrality"
	"graphhd/internal/hdc"
)

// Model serialization. A trained GraphHD model is remarkably small: the
// basis hypervectors regenerate deterministically from the seed, so only
// the configuration and the per-class state need storing. Four record
// versions share one header layout (little endian):
//
//	magic   [8]byte  "GRAPHHD1" (full model), "GRAPHHD2" (packed
//	                 predictor), "GRAPHHD3" (legacy, read only) or
//	                 "GRAPHHD4" (packed + revision)
//	dim     uint32
//	prIters uint32
//	damping float64
//	seed    uint64
//	flags   uint32   bit0 = bipolar class vectors, bit1 = use vertex labels
//	metric  uint32   centrality metric
//	k       uint32   class count
//
// A GRAPHHD1 body stores the live int32 class accumulators — k × { count
// int64, dim × sum int32 } — so the model keeps learning after a reload
// (~240 KB for 6 classes at d = 10,000). A GRAPHHD2 body stores the
// majority-voted class vectors bit-packed — k × ⌈dim/64⌉ uint64 words —
// the query-only deployment form (~7.5 KB for the same model, 32× less).
//
// A GRAPHHD4 record carries the model revision (see Model.Revision): a
// revision uint64 followed by a reserved pair of uint32s, then the
// packed class words. Predictor.WriteTo emits GRAPHHD4 exactly when
// revision > 0, so artifacts from never-updated models stay
// byte-identical to earlier releases; snapshots taken after online
// updates round-trip their staleness marker.
//
// The reserved pair once held the configuration of a prefix-sliced
// two-stage classifier (dprefix, margin), which earlier releases also
// wrote in GRAPHHD3 records: a GRAPHHD2 record with the pair between
// the header and the class words. That classifier is gone. Readers
// accept both records and ignore the pair, so such artifacts serve at
// full width; WriteTo writes the pair as zeroes and never writes
// GRAPHHD3.
//
// The labeled-extension (rank, label) cache regenerates lazily from the
// seed, so labeled models round-trip too.

var (
	modelMagic    = [8]byte{'G', 'R', 'A', 'P', 'H', 'H', 'D', '1'}
	packedMagic   = [8]byte{'G', 'R', 'A', 'P', 'H', 'H', 'D', '2'}
	legacyMagic   = [8]byte{'G', 'R', 'A', 'P', 'H', 'H', 'D', '3'}
	revisionMagic = [8]byte{'G', 'R', 'A', 'P', 'H', 'H', 'D', '4'}
)

const (
	flagBipolarCV uint32 = 1 << iota
	flagUseLabels
)

// maxPageRankIterations bounds the iteration count a record may claim:
// every predict runs that many PageRank sweeps, so a hostile header
// could otherwise pin a worker for minutes per graph. The paper uses 10.
const maxPageRankIterations = 1024

// writeHeader serializes the shared record header.
func writeHeader(write func(any) error, magic [8]byte, cfg Config, k int) error {
	var flags uint32
	if cfg.BipolarClassVectors {
		flags |= flagBipolarCV
	}
	if cfg.UseVertexLabels {
		flags |= flagUseLabels
	}
	fields := []any{
		magic,
		uint32(cfg.Dimension),
		uint32(cfg.PageRankIterations),
		cfg.PageRankDamping,
		cfg.Seed,
		flags,
		uint32(cfg.Centrality),
		uint32(k),
	}
	for _, f := range fields {
		if err := write(f); err != nil {
			return fmt.Errorf("core: serialize header: %w", err)
		}
	}
	return nil
}

// readHeaderBody deserializes everything after the magic bytes of the
// shared header, returning the config and class count.
func readHeaderBody(read func(any) error) (Config, int, error) {
	var dim, prIters, flags, metric, k uint32
	var damping float64
	var seed uint64
	for _, v := range []any{&dim, &prIters, &damping, &seed, &flags, &metric, &k} {
		if err := read(v); err != nil {
			return Config{}, 0, fmt.Errorf("core: read model header: %w", err)
		}
	}
	if dim == 0 || dim > 1<<24 {
		return Config{}, 0, fmt.Errorf("core: implausible dimension %d", dim)
	}
	if k == 0 || k > 1<<16 {
		return Config{}, 0, fmt.Errorf("core: implausible class count %d", k)
	}
	if prIters > maxPageRankIterations {
		return Config{}, 0, fmt.Errorf("core: implausible PageRank iteration count %d", prIters)
	}
	cfg := Config{
		Dimension:           int(dim),
		PageRankIterations:  int(prIters),
		PageRankDamping:     damping,
		Seed:                seed,
		BipolarClassVectors: flags&flagBipolarCV != 0,
		UseVertexLabels:     flags&flagUseLabels != 0,
		Centrality:          centrality.Metric(metric),
	}
	return cfg, int(k), nil
}

// WriteTo serializes the model. It implements io.WriterTo.
func (m *Model) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	n := int64(0)
	write := func(v any) error {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
		n += int64(binary.Size(v))
		return nil
	}
	if err := writeHeader(write, modelMagic, m.enc.Config(), m.k); err != nil {
		return n, err
	}
	for c := 0; c < m.k; c++ {
		acc := m.am.ClassAccumulator(c)
		if err := write(int64(acc.Count())); err != nil {
			return n, fmt.Errorf("core: serialize class %d: %w", c, err)
		}
		if err := write(acc.Sums()); err != nil {
			return n, fmt.Errorf("core: serialize class %d: %w", c, err)
		}
	}
	if err := bw.Flush(); err != nil {
		return n, fmt.Errorf("core: serialize flush: %w", err)
	}
	return n, nil
}

// SaveFile writes the model to path atomically (see writeFileAtomic).
func (m *Model) SaveFile(path string) error {
	if err := writeFileAtomic(path, m); err != nil {
		return fmt.Errorf("core: save model: %w", err)
	}
	return nil
}

// writeFileAtomic writes w to path so that a reader of path sees either
// the previous file or the complete new record, never a torn one: the
// record goes to a temporary file in path's directory, which is synced,
// closed, and renamed over path. On any error the temporary file is
// removed and path is left untouched. The file is created mode 0644.
func writeFileAtomic(path string, w io.WriterTo) (err error) {
	f, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(f.Name())
		}
	}()
	if err = f.Chmod(0o644); err != nil {
		return err
	}
	if _, err = w.WriteTo(f); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	return os.Rename(f.Name(), path)
}

// ReadModel deserializes a model written by WriteTo.
func ReadModel(r io.Reader) (*Model, error) {
	br := bufio.NewReader(r)
	var magic [8]byte
	if err := binary.Read(br, binary.LittleEndian, &magic); err != nil {
		return nil, fmt.Errorf("core: read model magic: %w", err)
	}
	if magic != modelMagic {
		return nil, fmt.Errorf("core: bad model magic %q", magic)
	}
	return readModelBody(br)
}

// readPayload reads the n-byte class payload that follows a record's
// header, before anything is allocated from the header's claims. The
// buffer grows only with the bytes the stream actually holds, so a short
// record claiming dimension 2^24 and 2^16 classes fails once its bytes
// run out instead of allocating terabytes of accumulators first.
func readPayload(r io.Reader, n int64) ([]byte, error) {
	var buf bytes.Buffer
	if _, err := io.CopyN(&buf, r, n); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("core: read class records: %w", err)
	}
	return buf.Bytes(), nil
}

// readModelBody deserializes a GRAPHHD1 record after the magic bytes.
func readModelBody(r io.Reader) (*Model, error) {
	cfg, k, err := readHeaderBody(func(v any) error {
		return binary.Read(r, binary.LittleEndian, v)
	})
	if err != nil {
		return nil, err
	}
	rec := 8 + 4*cfg.Dimension // count int64 + dim × sum int32
	body, err := readPayload(r, int64(k)*int64(rec))
	if err != nil {
		return nil, err
	}
	enc, err := NewEncoder(cfg)
	if err != nil {
		return nil, err
	}
	m, err := NewModel(enc, k)
	if err != nil {
		return nil, err
	}
	sums := make([]int32, cfg.Dimension)
	for c := 0; c < k; c++ {
		b := body[c*rec : (c+1)*rec]
		count := int64(binary.LittleEndian.Uint64(b))
		for i := range sums {
			sums[i] = int32(binary.LittleEndian.Uint32(b[8+4*i:]))
		}
		if err := m.am.LoadClass(c, sums, int(count)); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// LoadModelFile reads a model from path.
func LoadModelFile(path string) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: load model: %w", err)
	}
	defer f.Close()
	return ReadModel(f)
}

// WriteTo serializes the predictor as a GRAPHHD2 packed record or, when
// the snapshot carries a non-zero revision, a GRAPHHD4 record carrying
// it. It implements io.WriterTo.
func (p *Predictor) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	n := int64(0)
	write := func(v any) error {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
		n += int64(binary.Size(v))
		return nil
	}
	magic := packedMagic
	if p.revision != 0 {
		magic = revisionMagic
	}
	if err := writeHeader(write, magic, p.enc.Config(), p.NumClasses()); err != nil {
		return n, err
	}
	if magic == revisionMagic {
		if err := write(p.revision); err != nil {
			return n, fmt.Errorf("core: serialize revision: %w", err)
		}
		if err := write([2]uint32{}); err != nil { // the reserved pair
			return n, fmt.Errorf("core: serialize revision: %w", err)
		}
	}
	for c := 0; c < p.NumClasses(); c++ {
		if err := write(p.pm.ClassVector(c).Words()); err != nil {
			return n, fmt.Errorf("core: serialize packed class %d: %w", c, err)
		}
	}
	if err := bw.Flush(); err != nil {
		return n, fmt.Errorf("core: serialize flush: %w", err)
	}
	return n, nil
}

// SaveFile writes the packed predictor to path atomically (see
// writeFileAtomic).
func (p *Predictor) SaveFile(path string) error {
	if err := writeFileAtomic(path, p); err != nil {
		return fmt.Errorf("core: save predictor: %w", err)
	}
	return nil
}

// ReadPredictor deserializes a packed query predictor. It accepts all
// record versions: a GRAPHHD2/GRAPHHD3/GRAPHHD4 record loads directly
// (restoring the revision where present), and a GRAPHHD1 full model is
// loaded and snapshotted, so deployment code reads any format.
// Note that snapshotting always yields the majority-voted query semantics:
// for a GRAPHHD1 model saved with BipolarClassVectors false, the resulting
// predictions follow the majority-voted rule, not the int32-accumulator
// cosine rule the model itself would apply. Use ReadModel when the
// record's native query mode must be preserved.
func ReadPredictor(r io.Reader) (*Predictor, error) {
	br := bufio.NewReader(r)
	read := func(v any) error {
		return binary.Read(br, binary.LittleEndian, v)
	}
	var magic [8]byte
	if err := read(&magic); err != nil {
		return nil, fmt.Errorf("core: read model magic: %w", err)
	}
	switch magic {
	case modelMagic:
		m, err := readModelBody(br)
		if err != nil {
			return nil, err
		}
		return m.Snapshot(), nil
	case packedMagic, legacyMagic, revisionMagic:
	default:
		return nil, fmt.Errorf("core: bad model magic %q", magic)
	}
	cfg, k, err := readHeaderBody(read)
	if err != nil {
		return nil, err
	}
	var revision uint64
	if magic == revisionMagic {
		if err := read(&revision); err != nil {
			return nil, fmt.Errorf("core: read revision: %w", err)
		}
	}
	if magic != packedMagic {
		var reserved [2]uint32 // ignored; see the record layout above
		if err := read(&reserved); err != nil {
			return nil, fmt.Errorf("core: read reserved pair: %w", err)
		}
	}
	nw := (cfg.Dimension + 63) / 64
	body, err := readPayload(br, int64(k)*int64(nw)*8)
	if err != nil {
		return nil, err
	}
	enc, err := NewEncoder(cfg)
	if err != nil {
		return nil, err
	}
	words := make([]uint64, nw)
	classes := make([]*hdc.Binary, k)
	for c := range classes {
		b := body[c*nw*8:]
		for i := range words {
			words[i] = binary.LittleEndian.Uint64(b[8*i:])
		}
		if classes[c], err = hdc.BinaryFromWords(cfg.Dimension, words); err != nil {
			return nil, fmt.Errorf("core: packed class %d: %w", c, err)
		}
	}
	p, err := newPredictor(enc, classes)
	if err != nil {
		return nil, err
	}
	p.revision = revision
	return p, nil
}

// LoadPredictorFile reads a predictor from path (either record version).
func LoadPredictorFile(path string) (*Predictor, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: load predictor: %w", err)
	}
	defer f.Close()
	return ReadPredictor(f)
}
