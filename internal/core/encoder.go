// Package core implements GraphHD, the paper's primary contribution: an
// encoder from graphs to hypervectors (PageRank-rank vertex identifiers,
// bind for edges, bundle for the whole graph) and the HDC classifier built
// on it, together with the retraining / multi-prototype / vertex-label
// extensions the paper lists as future work.
package core

import (
	"fmt"
	"sync"

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
	// PageRankDamping is the damping factor (paper-standard 0.85).
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
	if !(c.PageRankDamping >= 0 && c.PageRankDamping < 1) { // rejects NaN too
		return fmt.Errorf("core: damping %f outside [0,1)", c.PageRankDamping)
	}
	return nil
}

// Encoder maps graphs to hypervectors, implementing Enc_G of Section IV.
// It is safe for concurrent use: the underlying item memories synchronize
// internally and encoding is otherwise stateless.
type Encoder struct {
	cfg       Config
	ranks     *hdc.ItemMemory // basis hypervectors indexed by centrality rank
	tie       *hdc.Bipolar    // deterministic bundling tie-break
	packedTie *hdc.Binary     // tie in bit form, for the packed pipeline
	prOpts    pagerank.Options

	// Labeled-extension state: one basis hypervector per (rank, label)
	// pair, generated from a keyed seed so that lookups are deterministic
	// and independent of access order. A plain Bind(rankHV, labelHV) would
	// NOT work: when both endpoints of an edge carry the same label, the
	// label hypervector cancels through the edge bind (L ⊙ L = 1), making
	// the encoding blind to uniform relabelings.
	labelSeed uint64
	labelMu   sync.Mutex
	labelVecs map[rankLabelKey]*hdc.Bipolar

	// Packed copies of the rank basis vectors for the bit-sliced fast
	// encoding path (see EncodeGraph). packed[r] is ranks.Vector(r) in
	// bit form; the slice only ever grows, guarded by packedMu.
	packedMu sync.RWMutex
	packed   []*hdc.Binary

	// scratch pools EncoderScratch values so the one-shot encode/rank
	// APIs run allocation-free in steady state; the chunked batch APIs
	// check one out per chunk.
	scratch sync.Pool
}

type rankLabelKey struct {
	rank, label int
}

// NewEncoder builds an encoder from cfg.
func NewEncoder(cfg Config) (*Encoder, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	seeds := hdc.NewRNG(cfg.Seed)
	e := &Encoder{
		cfg:       cfg,
		ranks:     hdc.NewItemMemory(cfg.Dimension, seeds.Uint64()),
		labelSeed: seeds.Uint64(),
		tie:       hdc.RandomBipolar(cfg.Dimension, hdc.NewRNG(seeds.Uint64())),
		labelVecs: make(map[rankLabelKey]*hdc.Bipolar),
		prOpts: pagerank.Options{
			Damping:    cfg.PageRankDamping,
			Iterations: cfg.PageRankIterations,
		},
	}
	e.packedTie = e.tie.PackBinary()
	e.scratch.New = func() any { return e.NewScratch() }
	return e, nil
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

// Tie returns the deterministic tie-break hypervector used for all
// bundling performed with this encoder.
func (e *Encoder) Tie() *hdc.Bipolar { return e.tie }

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

// VertexVectors returns Enc_v(v) for every vertex of g: the basis
// hypervector of the vertex's centrality rank, bound with its label
// hypervector when the labeled extension is active and g is labeled.
func (e *Encoder) VertexVectors(g *graph.Graph) []*hdc.Bipolar {
	ranks := e.Ranks(g)
	out := make([]*hdc.Bipolar, g.NumVertices())
	for v := range out {
		out[v] = e.vertexVector(g, v, ranks[v])
	}
	return out
}

// vertexVector returns Enc_v for a single vertex given its precomputed
// centrality rank, resolving the labeled extension when active.
func (e *Encoder) vertexVector(g *graph.Graph, v, rank int) *hdc.Bipolar {
	if e.cfg.UseVertexLabels && g.Labeled() {
		return e.rankLabelVector(rank, g.VertexLabel(v))
	}
	return e.ranks.Vector(rank)
}

// rankLabelVector returns the basis hypervector for a (rank, label) pair,
// generating it deterministically from a key-derived seed on first use.
func (e *Encoder) rankLabelVector(rank, label int) *hdc.Bipolar {
	key := rankLabelKey{rank, label}
	e.labelMu.Lock()
	defer e.labelMu.Unlock()
	if hv, ok := e.labelVecs[key]; ok {
		return hv
	}
	// Mix the key into the seed with two rounds of a splitmix-style
	// permutation so nearby (rank, label) pairs decorrelate fully.
	s := e.labelSeed ^ (uint64(uint32(rank)) | uint64(uint32(label))<<32)
	s = (s ^ (s >> 30)) * 0xbf58476d1ce4e5b9
	s = (s ^ (s >> 27)) * 0x94d049bb133111eb
	hv := hdc.RandomBipolar(e.cfg.Dimension, hdc.NewRNG(s))
	e.labelVecs[key] = hv
	return hv
}

// EncodeGraph returns Enc_G(g): the bundle over all edges of the bind of
// the endpoint vertex hypervectors (Algorithm 1, lines 5-8, plus the
// bundle in line 8). An edgeless graph encodes to the bundle of its vertex
// hypervectors instead, so that degenerate graphs still produce a usable
// representation (the paper does not define this case; bundling vertices
// is the natural fallback and only affects empty-edge-set inputs).
//
// Unlabeled graphs — the paper's baseline setting — take a bit-sliced fast
// path: basis vectors are packed to bits once, each edge bind becomes a
// d/64-word XNOR, and majority counts accumulate in SWAR nibble/byte lanes
// (hdc.BitCounter). The result is bit-for-bit identical to the reference
// int8 pipeline, roughly an order of magnitude faster; encodeGraphSlow
// keeps the reference implementation alive for the labeled extension and
// for the equivalence tests.
func (e *Encoder) EncodeGraph(g *graph.Graph) *hdc.Bipolar {
	s := e.getScratch()
	defer e.putScratch(s)
	gs := [1]*graph.Graph{g}
	var out [1]*hdc.Bipolar
	s.encodeBipolarNew(gs[:], out[:])
	return out[0]
}

// EncodeGraphPacked is EncodeGraph without the int8 detour: the bundle is
// majority-voted straight into bit-packed Binary form, so the hypervector
// stays d/64 words from encoding through classification. The result equals
// EncodeGraph(g).PackBinary() bit for bit on every input (the labeled and
// edgeless fallbacks pack the reference encoding).
func (e *Encoder) EncodeGraphPacked(g *graph.Graph) *hdc.Binary {
	s := e.getScratch()
	defer e.putScratch(s)
	return s.EncodeGraphPacked(g).Clone()
}

// encodeGraphSlow is the reference int8 implementation of Enc_G.
func (e *Encoder) encodeGraphSlow(g *graph.Graph) *hdc.Bipolar {
	vvecs := e.VertexVectors(g)
	acc := hdc.NewAccumulator(e.cfg.Dimension)
	edges := g.Edges()
	if len(edges) == 0 {
		if len(vvecs) == 0 {
			// Empty graph: encode as the tie-break vector, a fixed
			// arbitrary point in hyperspace.
			return e.tie.Clone()
		}
		for _, hv := range vvecs {
			acc.Add(hv)
		}
		return acc.Sign(e.tie)
	}
	for _, ed := range edges {
		acc.Add(vvecs[ed.U].Bind(vvecs[ed.V]))
	}
	return acc.Sign(e.tie)
}

// packedSlice returns a snapshot of the packed basis table covering ranks
// [0, n), growing it if needed. Entries are immutable once created, so the
// snapshot stays valid after later growth; callers pay one lock round per
// graph instead of per edge.
func (e *Encoder) packedSlice(n int) []*hdc.Binary {
	e.packedMu.RLock()
	if n <= len(e.packed) {
		p := e.packed
		e.packedMu.RUnlock()
		return p
	}
	e.packedMu.RUnlock()
	e.packedMu.Lock()
	defer e.packedMu.Unlock()
	for len(e.packed) < n {
		e.packed = append(e.packed, e.ranks.Vector(len(e.packed)).PackBinary())
	}
	return e.packed
}

// EncodeEdge returns Enc_e((u,v)) = Enc_v(u) × Enc_v(v) for one edge of g.
// Exposed for diagnostics and tests; EncodeGraph is the hot path. Only the
// two endpoint vectors are materialized (centrality ranks are a whole-graph
// property and are still computed once).
func (e *Encoder) EncodeEdge(g *graph.Graph, u, v int) *hdc.Bipolar {
	ranks := e.Ranks(g)
	return e.vertexVector(g, u, ranks[u]).Bind(e.vertexVector(g, v, ranks[v]))
}

// reserveFor pre-materializes the rank basis vectors (and their packed
// copies) covering every vertex count in graphs, so parallel encoding
// workers take the read-lock fast path throughout.
func (e *Encoder) reserveFor(graphs []*graph.Graph) {
	maxN := 0
	packedPath := false
	for _, g := range graphs {
		if g.NumVertices() > maxN {
			maxN = g.NumVertices()
		}
		// Mirror edgeBitCounter's gate: any graph outside the labeled
		// extension will take the packed fast path.
		if !(e.cfg.UseVertexLabels && g.Labeled()) {
			packedPath = true
		}
	}
	e.ranks.Reserve(maxN)
	if packedPath {
		e.packedSlice(maxN)
	}
}
