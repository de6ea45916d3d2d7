// Package core implements GraphHD, the paper's primary contribution: an
// encoder from graphs to hypervectors (PageRank-rank vertex identifiers,
// bind for edges, bundle for the whole graph) and the HDC classifier built
// on it, together with the retraining / multi-prototype / vertex-label
// extensions the paper lists as future work.
package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"weak"

	"graphhd/internal/centrality"
	"graphhd/internal/graph"
	"graphhd/internal/hdc"
	"graphhd/internal/pagerank"
)

// Config holds the GraphHD hyper-parameters. The zero value is *not*
// usable; call DefaultConfig for the paper's settings.
type Config struct {
	// Dimension of all hypervectors. The paper uses 10,000.
	Dimension int
	// PageRankIterations is the fixed number of power-iteration steps.
	// The paper uses 10 ("the accuracy of GraphHD has then plateaued").
	PageRankIterations int
	// PageRankDamping is the damping factor, in (0, 1) (paper-standard
	// 0.85).
	PageRankDamping float64
	// Seed determines the basis hypervectors and tie-break vector.
	Seed uint64
	// BipolarClassVectors selects the strict paper formulation where class
	// vectors are majority-voted down to bipolar form before similarity
	// queries. When false (default), queries compare against the integer
	// accumulators, the common higher-precision variant.
	BipolarClassVectors bool
	// UseVertexLabels enables the labeled-graph extension (Future Work 2):
	// a vertex's hypervector becomes Bind(rankHV, labelHV) on labeled
	// graphs. Unlabeled graphs are unaffected.
	UseVertexLabels bool
	// Centrality selects the vertex-identifier metric. The zero value is
	// centrality.PageRank, the paper's choice; Degree, Eigenvector and
	// Closeness support the identifier ablation (A7 in DESIGN.md).
	Centrality centrality.Metric
}

// DefaultConfig returns the configuration used for every paper experiment.
func DefaultConfig() Config {
	return Config{
		Dimension:          10000,
		PageRankIterations: pagerank.DefaultIterations,
		PageRankDamping:    pagerank.DefaultDamping,
		Seed:               0x67726170686864, // "graphhd"
	}
}

func (c Config) validate() error {
	if c.Dimension <= 0 {
		return fmt.Errorf("core: non-positive dimension %d", c.Dimension)
	}
	if c.PageRankIterations <= 0 {
		return fmt.Errorf("core: non-positive PageRank iterations %d", c.PageRankIterations)
	}
	// 0 is refused, not defaulted: pagerank.Options reads a zero damping
	// as DefaultDamping, so a model configured (or loaded) at 0 would
	// rank at 0.85 while its header said 0.
	if !(c.PageRankDamping > 0 && c.PageRankDamping < 1) { // rejects NaN too
		return fmt.Errorf("core: damping %f outside (0,1)", c.PageRankDamping)
	}
	// centrality ranks an unknown metric with PageRank, so a model
	// configured (or loaded) with one would be reported as "unknown".
	if c.Centrality < centrality.PageRank || c.Centrality > centrality.Closeness {
		return fmt.Errorf("core: unknown centrality metric %d", c.Centrality)
	}
	return nil
}

// Encoder maps graphs to hypervectors, implementing Enc_G of Section IV.
// It is safe for concurrent use: the packed basis slab synchronizes
// internally and encoding is otherwise stateless.
//
// An encoder is a pure function of its Config, so a process holds at
// most one per Config (see NewEncoder): every model, predictor and caller
// with that configuration shares its basis slab, tie vector, item memory
// and scratch pool.
type Encoder struct {
	cfg    Config
	ranks  *hdc.ItemMemory // basis hypervectors indexed by centrality rank
	tie    *hdc.Binary     // deterministic bundling tie-break
	prOpts pagerank.Options

	// labelSeed keys the labeled extension's basis: one hypervector per
	// (rank, label) pair, generated from a keyed seed (rankLabelSeed) so
	// that it is deterministic and independent of access order. A plain
	// Bind(rankHV, labelHV) would NOT work: when both endpoints of an edge
	// carry the same label, the label hypervector cancels through the
	// edge bind (L ⊙ L = 1), making the encoding blind to uniform
	// relabelings.
	labelSeed uint64

	// basis is the packed rank basis as one slab of stride-word rows
	// (stride = hdc.SlabStride(d)): rank r's words, ranks.FillPacked(r),
	// sit at [r·stride, r·stride + d/64), and one all-zero row follows the
	// last rank, the partner of a vertex bundle's keys. The slab only
	// grows, to the largest unlabeled graph encoded. Each version is
	// published whole through the atomic pointer, so a reader keeps the
	// snapshot it loaded; growth, serialized by growMu, copies into a
	// larger slab.
	basis  atomic.Pointer[[]uint64]
	growMu sync.Mutex
	stride int

	// scratch pools EncoderScratch values so the one-shot encode/rank
	// APIs run allocation-free in steady state; the chunked batch APIs
	// check one out per chunk, and PredictBatchTraced, the serving
	// engine's primitive, one per call.
	scratch sync.Pool
}

// encoders maps each Config to the process's live encoder for it, held
// weakly, so a configuration nothing uses costs nothing: once its encoder
// is collected, a cleanup drops the entry.
var (
	encodersMu sync.Mutex
	encoders   = map[Config]weak.Pointer[Encoder]{}
)

// encoderEntry identifies one entry of encoders for its cleanup.
type encoderEntry struct {
	cfg Config
	wp  weak.Pointer[Encoder]
}

// NewEncoder returns the encoder for cfg: the process's live encoder for
// an equal Config if there is one, else a new one. Every field of the
// Config is part of the key, BipolarClassVectors too, because NewModel
// reads it from the encoder. Train, ReadModel and ReadPredictor all build
// through here, so models of one configuration share one basis slab and
// scratch pool, and the slab grows once per new largest graph per
// process, not per model.
func NewEncoder(cfg Config) (*Encoder, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	encodersMu.Lock()
	defer encodersMu.Unlock()
	if e := encoders[cfg].Value(); e != nil {
		return e, nil
	}
	seeds := hdc.NewRNG(cfg.Seed)
	e := &Encoder{
		cfg:       cfg,
		ranks:     hdc.NewItemMemory(cfg.Dimension, seeds.Uint64()),
		labelSeed: seeds.Uint64(),
		tie:       hdc.RandomBinary(cfg.Dimension, hdc.NewRNG(seeds.Uint64())),
		prOpts: pagerank.Options{
			Damping:    cfg.PageRankDamping,
			Iterations: cfg.PageRankIterations,
		},
	}
	e.stride = hdc.SlabStride(cfg.Dimension)
	e.basis.Store(new([]uint64)) // no rows until the first graph needs them
	e.scratch.New = func() any { return e.NewScratch() }
	wp := weak.Make(e)
	encoders[cfg] = wp
	runtime.AddCleanup(e, dropEncoder, encoderEntry{cfg, wp})
	return e, nil
}

// dropEncoder removes a collected encoder's entry, unless a new encoder
// for the same Config has replaced it since.
func dropEncoder(k encoderEntry) {
	encodersMu.Lock()
	defer encodersMu.Unlock()
	if encoders[k.cfg] == k.wp {
		delete(encoders, k.cfg)
	}
}

// MustNewEncoder is NewEncoder that panics on an invalid configuration;
// for use with compile-time-constant configs.
func MustNewEncoder(cfg Config) *Encoder {
	e, err := NewEncoder(cfg)
	if err != nil {
		panic(err)
	}
	return e
}

// Config returns the encoder's configuration.
func (e *Encoder) Config() Config { return e.cfg }

// Dimension returns the hypervector dimensionality.
func (e *Encoder) Dimension() int { return e.cfg.Dimension }

// Ranks returns the centrality ranks the encoder assigns to g's vertices
// under the configured metric. The returned slice is freshly allocated;
// intermediate buffers come from a pooled scratch.
func (e *Encoder) Ranks(g *graph.Graph) []int {
	s := e.getScratch()
	defer e.putScratch(s)
	return centrality.RanksInto(g, e.cfg.Centrality, centrality.Options{
		Iterations: e.prOpts.Iterations,
		Damping:    e.prOpts.Damping,
	}, make([]int, g.NumVertices()), &s.cent)
}

// labeled reports whether g's vertex hypervectors come from the (rank,
// label) basis rather than the rank basis.
func (e *Encoder) labeled(g *graph.Graph) bool {
	return e.cfg.UseVertexLabels && g.Labeled()
}

// rankLabelSeed returns the seed of the labeled extension's basis
// hypervector for a (rank, label) pair: the vector is RandomBipolar(d,
// NewRNG(seed)), packed. Two rounds of a splitmix-style permutation mix
// the key into the encoder's label seed so nearby pairs decorrelate
// fully.
func (e *Encoder) rankLabelSeed(rank, label int) uint64 {
	s := e.labelSeed ^ (uint64(uint32(rank)) | uint64(uint32(label))<<32)
	s = (s ^ (s >> 30)) * 0xbf58476d1ce4e5b9
	return (s ^ (s >> 27)) * 0x94d049bb133111eb
}

// EncodeGraph returns Enc_G(g): the bundle over all edges of the bind of
// the endpoint vertex hypervectors (Algorithm 1, lines 5-8, plus the
// bundle in line 8). A vertex hypervector is the basis hypervector of
// its centrality rank, or, under the labeled extension on a labeled
// graph, of its (rank, label) pair. An edgeless graph encodes to the
// bundle of its vertex hypervectors instead, so that degenerate graphs
// still produce a usable representation (the paper does not define this
// case; bundling vertices is the natural fallback and only affects
// empty-edge-set inputs), and the empty graph to the tie-break vector.
//
// It is EncodeGraphPacked unpacked to int8 components, which is exact
// because packing is a bijection: every graph takes the bit-sliced
// pipeline, where each edge bind is a d/64-word XNOR of packed basis
// vectors and majority counts accumulate in SWAR lanes (hdc.BitCounter).
func (e *Encoder) EncodeGraph(g *graph.Graph) *hdc.Bipolar {
	s := e.getScratch()
	defer e.putScratch(s)
	return s.EncodeGraphPacked(g).UnpackBipolar()
}

// EncodeGraphPacked returns Enc_G(g) in bit-packed form: the bundle is
// majority-voted straight into Binary words, so the hypervector stays d/64
// words from encoding through training and classification. It equals the
// per-edge int8 bundle of the paper's formulation, packed, bit for bit.
func (e *Encoder) EncodeGraphPacked(g *graph.Graph) *hdc.Binary {
	s := e.getScratch()
	defer e.putScratch(s)
	return s.EncodeGraphPacked(g).Clone()
}

// basisFor returns a snapshot of the basis slab covering ranks [0, n),
// growing it if needed. Rows are immutable once written, so the snapshot
// stays valid after later growth; callers load it once per batch.
func (e *Encoder) basisFor(n int) []uint64 {
	if b := *e.basis.Load(); len(b) > n*e.stride {
		return b
	}
	e.growMu.Lock()
	defer e.growMu.Unlock()
	old := *e.basis.Load()
	if len(old) > n*e.stride {
		return old
	}
	slab := make([]uint64, (n+1)*e.stride)
	rows := max(len(old)/e.stride-1, 0)
	copy(slab, old[:rows*e.stride])
	for r := rows; r < n; r++ {
		e.ranks.FillPacked(r, slab[r*e.stride:])
	}
	e.basis.Store(&slab)
	return slab
}

// reserveFor grows the basis slab to cover every graph that reads it, so
// parallel encoding workers share one version of it throughout. Labeled
// graphs under UseVertexLabels read their scratch's (rank, label) slab
// instead.
func (e *Encoder) reserveFor(graphs []*graph.Graph) {
	n := 0
	for _, g := range graphs {
		if !e.labeled(g) {
			n = max(n, g.NumVertices())
		}
	}
	e.basisFor(n)
}
