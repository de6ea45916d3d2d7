package hdc

import (
	"fmt"
	"math/bits"
)

// PackedMemory is a read-only query snapshot of an AssociativeMemory whose
// class vectors have been majority-voted down to bit-packed Binary form.
// Similarity queries become per-word XOR + popcount over d/64 uint64 words
// instead of a d-element int8 multiply-accumulate — the packed fast path
// for GraphHD inference.
//
// Under the bit 1 ↔ +1 mapping, the cosine of two bipolar vectors equals
// 1 - 2*Hamming/d, a strictly decreasing function of the Hamming distance.
// Classify therefore minimizes the integer Hamming distance directly and
// returns predictions bit-for-bit identical to an AssociativeMemory
// configured with bipolar (majority-voted) class vectors; Similarities
// reproduces the reference cosine values exactly, including exact float64
// equality, because (d - 2h)/d is precisely how the bipolar cosine is
// computed from the integer dot product d - 2h.
//
// A PackedMemory is immutable and safe for concurrent use.
type PackedMemory struct {
	dim     int
	classes []*Binary
}

// NewPackedMemory builds a packed query memory from one majority-voted
// class vector per class. The vectors are not copied; callers hand over
// ownership.
func NewPackedMemory(classes []*Binary) (*PackedMemory, error) {
	if len(classes) == 0 {
		return nil, fmt.Errorf("hdc: packed memory needs at least one class")
	}
	dim := classes[0].Dim()
	for c, cv := range classes {
		if cv == nil {
			return nil, fmt.Errorf("hdc: class %d vector is nil", c)
		}
		if cv.Dim() != dim {
			return nil, fmt.Errorf("hdc: class %d dimension %d, want %d", c, cv.Dim(), dim)
		}
	}
	return &PackedMemory{dim: dim, classes: classes}, nil
}

// NumClasses returns the number of classes.
func (pm *PackedMemory) NumClasses() int { return len(pm.classes) }

// Dim returns the hypervector dimensionality.
func (pm *PackedMemory) Dim() int { return pm.dim }

// ClassVector returns the packed class vector of class c (shared;
// read-only).
func (pm *PackedMemory) ClassVector(c int) *Binary { return pm.classes[c] }

// MemoryBytes returns the bytes held by the packed class vectors — the
// model's entire query-time footprint (k × d/8 rounded up to words).
func (pm *PackedMemory) MemoryBytes() int {
	return len(pm.classes) * len(pm.classes[0].words) * 8
}

// hammingWords returns the Hamming distance between two equal-length
// word vectors: the dispatched vector kernel covers every word (AVX-512
// VPOPCNTDQ) or the lane-aligned prefix (AVX2 PSHUFB-LUT popcount), and
// the portable POPCNT loop — the semantic source of truth — finishes
// whatever is left.
func hammingWords(kern *kernelTable, a, b []uint64) int {
	h := 0
	lo := 0
	if kern.hamming != nil {
		if vn := kern.vecLen(len(a)); vn > 0 {
			h = int(kern.hamming(&a[0], &b[0], int64(vn)))
			lo = vn
		}
	}
	b = b[:len(a)]
	for w := lo; w < len(a); w++ {
		h += bits.OnesCount64(a[w] ^ b[w])
	}
	return h
}

// Hammings returns the Hamming distance from v to every class vector.
func (pm *PackedMemory) Hammings(v *Binary) []int {
	if v.d != pm.dim {
		panic(fmt.Sprintf("hdc: dimension mismatch %d vs %d", v.d, pm.dim))
	}
	kern := loadKernels()
	out := make([]int, len(pm.classes))
	for c, cv := range pm.classes {
		out[c] = hammingWords(kern, cv.words, v.words)
	}
	return out
}

// Similarities returns δ(v, C_c) = 1 - 2*Hamming/d for every class c,
// exactly the cosine the bipolar reference path computes.
func (pm *PackedMemory) Similarities(v *Binary) []float64 {
	hs := pm.Hammings(v)
	sims := make([]float64, len(hs))
	for c, h := range hs {
		sims[c] = float64(pm.dim-2*h) / float64(pm.dim)
	}
	return sims
}

// Classify returns the class whose vector is nearest to v in Hamming
// distance, breaking exact ties toward the smaller class index — the same
// deterministic tie rule as AssociativeMemory.Classify. It allocates
// nothing.
func (pm *PackedMemory) Classify(v *Binary) int {
	if v.d != pm.dim {
		panic(fmt.Sprintf("hdc: dimension mismatch %d vs %d", v.d, pm.dim))
	}
	kern := loadKernels()
	best, bestH := 0, pm.dim+1
	for c, cv := range pm.classes {
		h := hammingWords(kern, cv.words, v.words)
		if h < bestH {
			best, bestH = c, h
		}
	}
	return best
}
