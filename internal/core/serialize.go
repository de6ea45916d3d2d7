package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"graphhd/internal/centrality"
	"graphhd/internal/hdc"
)

// Model serialization. A trained GraphHD model is remarkably small: the
// basis hypervectors regenerate deterministically from the seed, so only
// the configuration and the per-class state need storing. Three record
// versions share one header layout (little endian):
//
//	magic   [8]byte  "GRAPHHD1" (full model), "GRAPHHD2" (packed
//	                 predictor), or "GRAPHHD3" (packed + cascade config)
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
// A GRAPHHD3 record is a GRAPHHD2 packed predictor that additionally
// carries its cascade configuration — dprefix uint32 + margin uint32
// between the header and the class words — so a calibrated two-stage
// deployment (see cascade.go) survives save/load without re-calibration.
// Predictor.WriteTo emits GRAPHHD3 exactly when a cascade is set.
//
// A GRAPHHD4 record carries the model revision (see Model.Revision): a
// revision uint64 followed by the cascade pair — dprefix uint32 + margin
// uint32, zeroes meaning no cascade — then the packed class words.
// Predictor.WriteTo emits GRAPHHD4 exactly when revision > 0, so
// artifacts from never-updated models stay byte-identical to earlier
// releases; snapshots taken after online updates round-trip their
// staleness marker.
//
// The labeled-extension (rank, label) cache regenerates lazily from the
// seed, so labeled models round-trip too.

var (
	modelMagic    = [8]byte{'G', 'R', 'A', 'P', 'H', 'H', 'D', '1'}
	packedMagic   = [8]byte{'G', 'R', 'A', 'P', 'H', 'H', 'D', '2'}
	cascadeMagic  = [8]byte{'G', 'R', 'A', 'P', 'H', 'H', 'D', '3'}
	revisionMagic = [8]byte{'G', 'R', 'A', 'P', 'H', 'H', 'D', '4'}
)

const (
	flagBipolarCV uint32 = 1 << iota
	flagUseLabels
)

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

// SaveFile writes the model to path.
func (m *Model) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("core: save model: %w", err)
	}
	if _, err := m.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
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

// WriteTo serializes the predictor as a GRAPHHD2 packed record — or, when
// a cascade is configured, a GRAPHHD3 record carrying the cascade config —
// or, when the snapshot carries a non-zero revision, a GRAPHHD4 record
// carrying revision plus cascade config. It implements io.WriterTo.
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
	casc, hasCasc := p.Cascade()
	magic := packedMagic
	switch {
	case p.revision != 0:
		magic = revisionMagic
	case hasCasc:
		magic = cascadeMagic
	}
	if err := writeHeader(write, magic, p.enc.Config(), p.NumClasses()); err != nil {
		return n, err
	}
	if magic == revisionMagic {
		if err := write(p.revision); err != nil {
			return n, fmt.Errorf("core: serialize revision: %w", err)
		}
		if !hasCasc {
			casc = Cascade{} // zeroes encode "no cascade"
		}
		hasCasc = true
	}
	if hasCasc {
		for _, v := range []uint32{uint32(casc.DPrefix), uint32(casc.Margin)} {
			if err := write(v); err != nil {
				return n, fmt.Errorf("core: serialize cascade config: %w", err)
			}
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

// SaveFile writes the packed predictor to path.
func (p *Predictor) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("core: save predictor: %w", err)
	}
	if _, err := p.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadPredictor deserializes a packed query predictor. It accepts all
// record versions: a GRAPHHD2/GRAPHHD3/GRAPHHD4 record loads directly
// (restoring cascade configuration and revision where present), and a
// GRAPHHD1 full model is
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
	case packedMagic, cascadeMagic, revisionMagic:
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
	var casc Cascade
	hasCasc := false
	if magic == cascadeMagic || magic == revisionMagic {
		var dprefix, margin uint32
		for _, v := range []any{&dprefix, &margin} {
			if err := read(v); err != nil {
				return nil, fmt.Errorf("core: read cascade config: %w", err)
			}
		}
		// In a GRAPHHD4 record all-zero cascade fields mean "none".
		if dprefix != 0 || margin != 0 || magic == cascadeMagic {
			casc = Cascade{DPrefix: int(dprefix), Margin: int(margin)}
			if err := casc.Validate(cfg.Dimension); err != nil {
				return nil, err
			}
			hasCasc = true
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
	if hasCasc {
		if err := p.SetCascade(casc); err != nil {
			return nil, err
		}
	}
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
