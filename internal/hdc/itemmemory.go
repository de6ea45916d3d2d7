package hdc

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// ItemMemory is a lazily grown table of basis hypervectors indexed by
// integer symbol id. GraphHD uses one to map a vertex's PageRank rank to
// its basis hypervector: rank r in any graph of the dataset retrieves the
// same random hypervector, which is what makes vertices of different
// graphs comparable.
//
// The memory is safe for concurrent use; parallel per-fold training shares
// a single basis set.
type ItemMemory struct {
	mu   sync.RWMutex
	dim  int
	seed uint64
	rng  *RNG
	vecs []*Bipolar
}

// NewItemMemory returns an empty item memory producing hypervectors of
// dimension dim, seeded deterministically with seed.
func NewItemMemory(dim int, seed uint64) *ItemMemory {
	if dim <= 0 {
		panic("hdc: non-positive dimension")
	}
	return &ItemMemory{dim: dim, seed: seed, rng: NewRNG(seed)}
}

// Dim returns the dimensionality of the stored hypervectors.
func (m *ItemMemory) Dim() int { return m.dim }

// Len returns the number of symbols materialized so far.
func (m *ItemMemory) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.vecs)
}

// Vector returns the basis hypervector for symbol id, generating (and
// caching) hypervectors for all ids up to and including id on first use.
// Because generation order is fixed (0, 1, 2, ...), the vector associated
// with a given id is independent of the access pattern.
func (m *ItemMemory) Vector(id int) *Bipolar {
	if id < 0 {
		panic(fmt.Sprintf("hdc: negative symbol id %d", id))
	}
	m.mu.RLock()
	if id < len(m.vecs) {
		v := m.vecs[id]
		m.mu.RUnlock()
		return v
	}
	m.mu.RUnlock()

	m.mu.Lock()
	defer m.mu.Unlock()
	for id >= len(m.vecs) {
		m.vecs = append(m.vecs, RandomBipolar(m.dim, m.rng))
	}
	return m.vecs[id]
}

// PackedVector returns Vector(id) in bit-packed form, generated straight
// from the memory's random stream: vector id is drawn from outputs
// id·W+1 … id·W+W of the stream (W = ⌈dim/64⌉ words, tail masked), so it
// needs neither the int8 table nor the vectors before it. The result is
// freshly allocated and not cached; it equals Vector(id).PackBinary() bit
// for bit.
func (m *ItemMemory) PackedVector(id int) *Binary {
	if id < 0 {
		panic(fmt.Sprintf("hdc: negative symbol id %d", id))
	}
	words := uint64((m.dim + 63) / 64)
	return RandomBinary(m.dim, NewRNG(m.seed+uint64(id)*words*gamma))
}

// Reserve eagerly materializes basis vectors for ids [0, n). Useful to
// avoid lock contention before a parallel section.
func (m *ItemMemory) Reserve(n int) {
	if n > 0 {
		m.Vector(n - 1)
	}
}

// AssociativeMemory stores one integer-accumulator class vector per class
// and answers nearest-class queries, the HDC inference primitive
// pred(y) = argmax_i δ(Enc(y), C_i). Samples and queries are bit-packed
// hypervectors (bit 1 ↔ +1); the class state is the int32 vote sums.
// Queries measure cosine similarity either against the raw integer sums
// (the default, more precise) or against the majority-voted class vectors.
//
// In the default mode the cosine of a packed query v with sums s is
// (2·Σ_{vᵢ=1} sᵢ − Σᵢ sᵢ) / (√(Σᵢ sᵢ²)·√d). Σᵢ sᵢ and the denominator are
// per-class constants, held in a snapshot that the first query after an
// update builds; the numerator is an exact integer. The similarities equal
// Accumulator.CosineToSums of the unpacked query whenever Σᵢ |sᵢ| < 2^53,
// which int32 sums (|sᵢ| ≤ 2^31) guarantee for every d < 2^22.
// With majority-voted class vectors, queries take the Hamming distance to
// the packed class words, which equals the bipolar cosine exactly.
//
// Training calls (Learn, Unlearn, AddCounter, Refresh) require a single
// writer and must not overlap queries; read-only queries are safe to run
// concurrently with each other. The query snapshots are immutable and
// published through atomic pointers: concurrent cold-cache readers may
// each build the same deterministic snapshot, and either store wins.
type AssociativeMemory struct {
	dim     int
	classes []*Accumulator
	tie     *Binary
	bipolar bool                         // if true, compare against majority-voted class vectors
	stats   atomic.Pointer[sumStats]     // lazy int32-mode query constants
	packed  atomic.Pointer[PackedMemory] // lazy majority-voted query snapshot
	// The snapshots the last update dropped, owned by the writer, whose
	// storage Refresh refills instead of allocating. Neither snapshot ever
	// leaves the memory, so no caller can hold one being refilled.
	spareStats  *sumStats
	sparePacked *PackedMemory
}

// sumStats holds each class's int32-mode query constants (see
// Accumulator.sumStats).
type sumStats struct {
	total []int64
	denom []float64
}

// NewAssociativeMemory returns a memory for k classes of dimension dim.
// tieSeed seeds the deterministic tie-break vector used when majority
// voting the accumulators. If bipolarClassVectors is true, inference
// compares queries against majority-voted class vectors (the strict paper
// formulation); otherwise against the integer sums.
func NewAssociativeMemory(k, dim int, tieSeed uint64, bipolarClassVectors bool) *AssociativeMemory {
	if k <= 0 {
		panic("hdc: non-positive class count")
	}
	am := &AssociativeMemory{
		dim:     dim,
		classes: make([]*Accumulator, k),
		tie:     RandomBinary(dim, NewRNG(tieSeed)),
		bipolar: bipolarClassVectors,
	}
	for i := range am.classes {
		am.classes[i] = NewAccumulator(dim)
	}
	return am
}

// NumClasses returns the number of classes.
func (am *AssociativeMemory) NumClasses() int { return len(am.classes) }

// Dim returns the hypervector dimensionality.
func (am *AssociativeMemory) Dim() int { return am.dim }

// invalidate drops the query snapshots after a class update, keeping them
// as the storage the writer's next Refresh refills.
func (am *AssociativeMemory) invalidate() {
	if st := am.stats.Swap(nil); st != nil {
		am.spareStats = st
	}
	if pm := am.packed.Swap(nil); pm != nil {
		am.sparePacked = pm
	}
}

// Learn bundles the encoded sample v into class c's accumulator.
func (am *AssociativeMemory) Learn(c int, v *Binary) {
	am.classes[c].AddPacked(v, 1)
	am.invalidate()
}

// Unlearn removes one vote of v from class c, the "C_wrong -= Enc(x)" step
// of perceptron-style retraining.
func (am *AssociativeMemory) Unlearn(c int, v *Binary) {
	am.classes[c].AddPacked(v, -1)
	am.invalidate()
}

// AddCounter bundles every vector bc has counted into class c in one pass
// (see Accumulator.AddCounter): the bulk form of Learn.
func (am *AssociativeMemory) AddCounter(c int, bc *BitCounter) {
	am.classes[c].AddCounter(bc)
	am.invalidate()
}

// ClassVector returns the majority-voted bipolar class vector for class c.
func (am *AssociativeMemory) ClassVector(c int) *Bipolar {
	return am.classes[c].SignBinary(am.tie).UnpackBipolar()
}

// ClassAccumulator exposes the raw accumulator for class c (shared, not a
// copy); callers must not mutate it concurrently with queries.
func (am *AssociativeMemory) ClassAccumulator(c int) *Accumulator {
	return am.classes[c]
}

// Snapshot majority-votes every class accumulator straight into a
// bit-packed Binary vector (the strict paper formulation, equivalent to
// bipolar class vectors) and returns an immutable packed query memory.
// The snapshot does not track later updates; take a fresh one after
// training.
func (am *AssociativeMemory) Snapshot() *PackedMemory {
	classes := make([]*Binary, len(am.classes))
	for i, acc := range am.classes {
		classes[i] = acc.SignBinary(am.tie)
	}
	pm, err := NewPackedMemory(classes)
	if err != nil {
		panic(err) // unreachable: k >= 1 and dimensions agree by construction
	}
	return pm
}

// refreshPacked returns the cached packed snapshot, building it after any
// class update.
func (am *AssociativeMemory) refreshPacked() *PackedMemory {
	if pm := am.packed.Load(); pm != nil {
		return pm
	}
	pm := am.Snapshot()
	am.packed.Store(pm)
	return pm
}

// refreshStats returns the cached int32-mode query constants, building
// them after any class update.
func (am *AssociativeMemory) refreshStats() *sumStats {
	if st := am.stats.Load(); st != nil {
		return st
	}
	k := len(am.classes)
	st := am.fillStats(&sumStats{total: make([]int64, k), denom: make([]float64, k)})
	am.stats.Store(st)
	return st
}

func (am *AssociativeMemory) fillStats(st *sumStats) *sumStats {
	for c, acc := range am.classes {
		st.total[c], st.denom[c] = acc.sumStats()
	}
	return st
}

// Refresh rebuilds, on the writer goroutine, the snapshot the configured
// mode queries — the int32 query constants or the majority-voted class
// words — into the storage the last update dropped. A training loop that
// calls it before classifying allocates nothing per update. It is a no-op
// while the snapshot is current; like Learn, it must not overlap queries.
func (am *AssociativeMemory) Refresh() {
	if am.bipolar {
		if am.packed.Load() != nil {
			return
		}
		pm := am.sparePacked
		if pm == nil {
			am.refreshPacked()
			return
		}
		am.sparePacked = nil
		for c, acc := range am.classes {
			acc.SignBinaryInto(am.tie, pm.classes[c])
		}
		am.packed.Store(pm)
		return
	}
	if am.stats.Load() != nil {
		return
	}
	st := am.spareStats
	if st == nil {
		am.refreshStats()
		return
	}
	am.spareStats = nil
	am.stats.Store(am.fillStats(st))
}

// ClassifyPacked classifies a bit-packed query against the (lazily
// refreshed) majority-voted snapshot via popcount Hamming distance,
// whatever the memory's mode. For a memory configured with bipolar class
// vectors it is exactly Classify.
func (am *AssociativeMemory) ClassifyPacked(v *Binary) int {
	return am.refreshPacked().Classify(v)
}

// Similarities returns δ(v, C_i) for every class i.
func (am *AssociativeMemory) Similarities(v *Binary) []float64 {
	if am.bipolar {
		return am.refreshPacked().Similarities(v)
	}
	mustSameDim(am.dim, v.d)
	st := am.refreshStats()
	sims := make([]float64, len(am.classes))
	for c, acc := range am.classes {
		sims[c] = acc.cosinePacked(v, st.total[c], st.denom[c])
	}
	return sims
}

// Classify returns the class whose vector is most similar to v, breaking
// exact similarity ties toward the smaller class index for determinism.
// It allocates nothing once the query snapshot is built.
func (am *AssociativeMemory) Classify(v *Binary) int {
	if am.bipolar {
		return am.refreshPacked().Classify(v)
	}
	mustSameDim(am.dim, v.d)
	st := am.refreshStats()
	best, bestSim := 0, 0.0
	for c, acc := range am.classes {
		if sim := acc.cosinePacked(v, st.total[c], st.denom[c]); c == 0 || sim > bestSim {
			best, bestSim = c, sim
		}
	}
	return best
}

// Reset clears all learned class information.
func (am *AssociativeMemory) Reset() {
	for _, acc := range am.classes {
		acc.Reset()
	}
	am.invalidate()
}

// LoadClass replaces class c's accumulator state; used when deserializing
// a trained model.
func (am *AssociativeMemory) LoadClass(c int, sums []int32, count int) error {
	if err := am.classes[c].LoadSums(sums, count); err != nil {
		return err
	}
	am.invalidate()
	return nil
}
