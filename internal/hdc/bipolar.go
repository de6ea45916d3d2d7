package hdc

import (
	"fmt"
	"math"
	"math/bits"
)

// Bipolar is a hypervector with components in {-1, +1}, the representation
// used by GraphHD in all paper experiments (d = 10,000). The zero value is
// not useful; construct vectors with NewBipolar, RandomBipolar or the
// operations below.
type Bipolar struct {
	comps []int8
}

// NewBipolar returns an all-(+1) bipolar hypervector of dimension d.
func NewBipolar(d int) *Bipolar {
	if d <= 0 {
		panic("hdc: non-positive dimension")
	}
	c := make([]int8, d)
	for i := range c {
		c[i] = 1
	}
	return &Bipolar{comps: c}
}

// RandomBipolar draws a uniform random bipolar hypervector of dimension d
// from rng. Components are i.i.d. with P(+1) = P(-1) = 1/2, which makes
// independently drawn hypervectors quasi-orthogonal in high dimension.
func RandomBipolar(d int, rng *RNG) *Bipolar {
	if d <= 0 {
		panic("hdc: non-positive dimension")
	}
	c := make([]int8, d)
	i := 0
	for i+64 <= d {
		bits := rng.Uint64()
		for b := 0; b < 64; b++ {
			if bits&(1<<uint(b)) != 0 {
				c[i+b] = 1
			} else {
				c[i+b] = -1
			}
		}
		i += 64
	}
	if i < d {
		bits := rng.Uint64()
		for b := 0; i < d; i, b = i+1, b+1 {
			if bits&(1<<uint(b)) != 0 {
				c[i] = 1
			} else {
				c[i] = -1
			}
		}
	}
	return &Bipolar{comps: c}
}

// FromComponents builds a bipolar hypervector from an explicit component
// slice. Every component must be -1 or +1; the slice is copied.
func FromComponents(comps []int8) (*Bipolar, error) {
	if len(comps) == 0 {
		return nil, fmt.Errorf("hdc: empty component slice")
	}
	c := make([]int8, len(comps))
	for i, v := range comps {
		if v != 1 && v != -1 {
			return nil, fmt.Errorf("hdc: component %d is %d, want -1 or +1", i, v)
		}
		c[i] = v
	}
	return &Bipolar{comps: c}, nil
}

// Dim returns the dimensionality of the hypervector.
func (v *Bipolar) Dim() int { return len(v.comps) }

// At returns the i-th component (-1 or +1).
func (v *Bipolar) At(i int) int8 { return v.comps[i] }

// Clone returns an independent copy of v.
func (v *Bipolar) Clone() *Bipolar {
	c := make([]int8, len(v.comps))
	copy(c, v.comps)
	return &Bipolar{comps: c}
}

// Equal reports whether v and w have identical dimension and components.
func (v *Bipolar) Equal(w *Bipolar) bool {
	if len(v.comps) != len(w.comps) {
		return false
	}
	for i, c := range v.comps {
		if w.comps[i] != c {
			return false
		}
	}
	return true
}

// Bind returns the element-wise product v ⊙ w, the HDC binding operation.
// Binding two bipolar hypervectors yields a third vector that is
// quasi-orthogonal to both operands, and binding is self-inverse:
// Bind(Bind(v, w), w) == v.
func (v *Bipolar) Bind(w *Bipolar) *Bipolar {
	mustSameDim(v.Dim(), w.Dim())
	c := make([]int8, len(v.comps))
	for i := range c {
		c[i] = v.comps[i] * w.comps[i]
	}
	return &Bipolar{comps: c}
}

// Permute returns v cyclically shifted right by k positions, the HDC
// permutation operation. Negative k shifts left; Permute(k) followed by
// Permute(-k) is the identity.
func (v *Bipolar) Permute(k int) *Bipolar {
	d := len(v.comps)
	k = ((k % d) + d) % d
	c := make([]int8, d)
	copy(c[k:], v.comps[:d-k])
	copy(c[:k], v.comps[d-k:])
	return &Bipolar{comps: c}
}

// Dot returns the integer dot product <v, w>.
func (v *Bipolar) Dot(w *Bipolar) int {
	mustSameDim(v.Dim(), w.Dim())
	s := 0
	for i := range v.comps {
		s += int(v.comps[i]) * int(w.comps[i])
	}
	return s
}

// Cosine returns the cosine similarity between v and w, which for bipolar
// vectors equals Dot(v, w) / d and lies in [-1, 1].
func (v *Bipolar) Cosine(w *Bipolar) float64 {
	return float64(v.Dot(w)) / float64(v.Dim())
}

// Hamming returns the number of positions where v and w differ.
func (v *Bipolar) Hamming(w *Bipolar) int {
	mustSameDim(v.Dim(), w.Dim())
	h := 0
	for i := range v.comps {
		if v.comps[i] != w.comps[i] {
			h++
		}
	}
	return h
}

// NormalizedHamming returns Hamming(v, w) / d in [0, 1].
func (v *Bipolar) NormalizedHamming(w *Bipolar) float64 {
	return float64(v.Hamming(w)) / float64(v.Dim())
}

// PackBinary converts v to the bit-packed binary representation, mapping
// +1 to bit 1 and -1 to bit 0.
func (v *Bipolar) PackBinary() *Binary {
	b := NewBinary(v.Dim())
	for i, c := range v.comps {
		if c == 1 {
			b.words[i>>6] |= 1 << uint(i&63)
		}
	}
	return b
}

// String renders a short diagnostic form, e.g. "Bipolar(d=10000, +-+...)".
func (v *Bipolar) String() string {
	n := len(v.comps)
	show := n
	if show > 8 {
		show = 8
	}
	buf := make([]byte, 0, show+24)
	for _, c := range v.comps[:show] {
		if c == 1 {
			buf = append(buf, '+')
		} else {
			buf = append(buf, '-')
		}
	}
	suffix := ""
	if n > show {
		suffix = "..."
	}
	return fmt.Sprintf("Bipolar(d=%d, %s%s)", n, buf, suffix)
}

// Accumulator is an integer-valued running bundle of bipolar hypervectors.
// Bundling in HDC is element-wise majority voting; keeping the raw vote
// counts (rather than the signed result) lets callers add and remove votes
// incrementally, which GraphHD's retraining extension relies on.
type Accumulator struct {
	sums []int32
	n    int
}

// NewAccumulator returns an empty accumulator of dimension d.
func NewAccumulator(d int) *Accumulator {
	if d <= 0 {
		panic("hdc: non-positive dimension")
	}
	return &Accumulator{sums: make([]int32, d)}
}

// Dim returns the dimensionality of the accumulator.
func (a *Accumulator) Dim() int { return len(a.sums) }

// Count returns the number of (signed) votes added so far. Subtracting a
// vector decrements the count.
func (a *Accumulator) Count() int { return a.n }

// Add bundles v into the accumulator.
func (a *Accumulator) Add(v *Bipolar) {
	mustSameDim(a.Dim(), v.Dim())
	for i, c := range v.comps {
		a.sums[i] += int32(c)
	}
	a.n++
}

// AddWeighted bundles v into the accumulator with integer weight w.
// Negative weights subtract influence, which implements the
// "C_wrong -= Enc(x)" step of perceptron-style HDC retraining.
func (a *Accumulator) AddWeighted(v *Bipolar, w int) {
	mustSameDim(a.Dim(), v.Dim())
	for i, c := range v.comps {
		a.sums[i] += int32(c) * int32(w)
	}
	a.n += w
}

// Sub removes one vote of v from the accumulator.
func (a *Accumulator) Sub(v *Bipolar) { a.AddWeighted(v, -1) }

// Sum returns the raw vote total at component i.
func (a *Accumulator) Sum(i int) int32 { return a.sums[i] }

// Reset clears all votes.
func (a *Accumulator) Reset() {
	for i := range a.sums {
		a.sums[i] = 0
	}
	a.n = 0
}

// Clone returns an independent copy of the accumulator.
func (a *Accumulator) Clone() *Accumulator {
	s := make([]int32, len(a.sums))
	copy(s, a.sums)
	return &Accumulator{sums: s, n: a.n}
}

// Sign collapses the accumulator to a bipolar hypervector by majority
// voting: positive sums map to +1, negative to -1, and exact ties take the
// corresponding component of tie. Passing a fixed random tie-break vector
// keeps bundling deterministic without biasing tied components toward +1.
func (a *Accumulator) Sign(tie *Bipolar) *Bipolar {
	mustSameDim(a.Dim(), tie.Dim())
	c := make([]int8, len(a.sums))
	for i, s := range a.sums {
		switch {
		case s > 0:
			c[i] = 1
		case s < 0:
			c[i] = -1
		default:
			c[i] = tie.comps[i]
		}
	}
	return &Bipolar{comps: c}
}

// CosineToSums returns the cosine similarity between bipolar v and the raw
// (un-signed) accumulator sums. Using the integer sums directly, rather
// than the majority-voted sign vector, is the standard "non-binarized
// class vector" inference variant; it is what the associative memory uses
// when configured for integer class vectors.
func (a *Accumulator) CosineToSums(v *Bipolar) float64 {
	mustSameDim(a.Dim(), v.Dim())
	var dot, norm float64
	for i, s := range a.sums {
		fs := float64(s)
		// Rounded products: no fused multiply-add on any architecture.
		dot += float64(fs * float64(v.comps[i]))
		norm += float64(fs * fs)
	}
	if norm == 0 {
		return 0
	}
	return dot / (math.Sqrt(norm) * math.Sqrt(float64(v.Dim())))
}

// AddPacked bundles the packed vector v with integer weight w:
// sᵢ += w·(2·bitᵢ − 1) and the count grows by w. Under the bit 1 ↔ +1
// mapping it is AddWeighted(v.UnpackBipolar(), w) without the int8
// vector.
func (a *Accumulator) AddPacked(v *Binary, w int) {
	mustSameDim(a.Dim(), v.d)
	w32 := int32(w)
	for wi, x := range v.words {
		s := a.sums[wi<<6 : min(wi<<6+64, len(a.sums))]
		for b := range s {
			// neg is 0 for a set bit and -1 for a clear one, so
			// (w ^ neg) - neg is +w or -w without a branch.
			neg := int32(x>>uint(b)&1) - 1
			s[b] += (w32 ^ neg) - neg
		}
	}
	a.n += w
}

// AddCounter bundles every vector c has counted, in one pass:
// sᵢ += 2·countᵢ − n and the count grows by n, where n = c.Count(). The
// sums equal those of adding each counted vector one at a time. c's
// active dimension must match. The counts are read in place from the
// tier that holds them: straight off the byte lanes while nothing has
// reached the int32 tier (at most 255 units, which covers a Fit chunk),
// so the lanes are neither flushed nor the int32 counts walked;
// otherwise from the int32 counts after a flush. Either way c keeps its
// counts until its next Reset.
func (a *Accumulator) AddCounter(c *BitCounter) {
	mustSameDim(a.Dim(), c.d)
	if c.inBytes() {
		c.foldBytesInto(a.sums)
	} else {
		c.flush()
		n := int64(c.n)
		for i, cnt := range c.counts {
			a.sums[i] += int32(2*int64(cnt) - n) // in [-n, n], so it fits
		}
	}
	a.n += c.n
}

// SignBinary collapses the accumulator straight into packed words by the
// rule of Sign: bit i is set when sᵢ > 0, cleared when sᵢ < 0, and copied
// from tie where sᵢ = 0. It equals Sign(tie.UnpackBipolar()).PackBinary()
// bit for bit.
func (a *Accumulator) SignBinary(tie *Binary) *Binary {
	return a.SignBinaryInto(tie, NewBinary(len(a.sums)))
}

// SignBinaryInto is SignBinary writing into dst, which must have the
// accumulator's dimension; every word is overwritten. Returns dst.
func (a *Accumulator) SignBinaryInto(tie, dst *Binary) *Binary {
	mustSameDim(a.Dim(), tie.d)
	mustSameDim(a.Dim(), dst.d)
	for w := range dst.words {
		var pos, neg uint64
		for b, s := range a.sums[w<<6 : min(w<<6+64, len(a.sums))] {
			pos |= (uint64(-int64(s)) >> 63) << uint(b) // s > 0
			neg |= (uint64(int64(s)) >> 63) << uint(b)  // s < 0
		}
		// Tie bits land only where the sum is zero; the tail beyond d is
		// zero in tie, so it stays zero in dst.
		dst.words[w] = pos | tie.words[w]&^(pos|neg)
	}
	return dst
}

// onesSum returns Σ sᵢ over the components where v's bit is set. The
// bipolar dot of the sums with v is then 2·onesSum − Σᵢ sᵢ, an exact
// integer.
func (a *Accumulator) onesSum(v *Binary) int64 {
	var t int64
	for w, x := range v.words {
		s := a.sums[w<<6:]
		for ; x != 0; x &= x - 1 {
			t += int64(s[bits.TrailingZeros64(x)])
		}
	}
	return t
}

// sumStats returns the two query constants of the int32 cosine: Σᵢ sᵢ,
// and the denominator √(Σᵢ sᵢ²)·√d of CosineToSums, with the norm summed
// by the same float64 loop so it is bit-identical. The denominator is 0
// for an all-zero accumulator.
func (a *Accumulator) sumStats() (total int64, denom float64) {
	var norm float64
	for _, s := range a.sums {
		total += int64(s)
		fs := float64(s)
		norm += float64(fs * fs)
	}
	if norm == 0 {
		return total, 0
	}
	return total, math.Sqrt(norm) * math.Sqrt(float64(len(a.sums)))
}

// cosinePacked is CosineToSums for a packed query, given the
// accumulator's sumStats.
func (a *Accumulator) cosinePacked(v *Binary, total int64, denom float64) float64 {
	if denom == 0 {
		return 0
	}
	return float64(2*a.onesSum(v)-total) / denom
}

// CosineToSumsPacked is CosineToSums for a packed query. The dot product
// is computed as the exact integer 2·Σ_{bitᵢ=1} sᵢ − Σᵢ sᵢ, which equals
// CosineToSums's float64 dot while Σᵢ |sᵢ| < 2^53 (every partial sum is
// then exact), so the two return the same float64 under that bound. Since
// |sᵢ| ≤ 2^31, the bound holds for every dimension below 2^22.
func (a *Accumulator) CosineToSumsPacked(v *Binary) float64 {
	mustSameDim(a.Dim(), v.d)
	total, denom := a.sumStats()
	return a.cosinePacked(v, total, denom)
}

// Bundle majority-votes the given hypervectors into a single bipolar
// hypervector, breaking component ties with tie. It is a convenience
// wrapper over Accumulator for one-shot bundling.
func Bundle(tie *Bipolar, vs ...*Bipolar) *Bipolar {
	if len(vs) == 0 {
		panic("hdc: Bundle of no vectors")
	}
	acc := NewAccumulator(vs[0].Dim())
	for _, v := range vs {
		acc.Add(v)
	}
	return acc.Sign(tie)
}

func mustSameDim(a, b int) {
	if a != b {
		panic(fmt.Sprintf("hdc: dimension mismatch %d vs %d", a, b))
	}
}

// Sums returns a copy of the raw vote totals.
func (a *Accumulator) Sums() []int32 {
	out := make([]int32, len(a.sums))
	copy(out, a.sums)
	return out
}

// LoadSums replaces the accumulator state with the given vote totals and
// count; used when deserializing a trained model. The slice is copied.
func (a *Accumulator) LoadSums(sums []int32, count int) error {
	if len(sums) != len(a.sums) {
		return fmt.Errorf("hdc: loading %d sums into dimension-%d accumulator", len(sums), len(a.sums))
	}
	copy(a.sums, sums)
	a.n = count
	return nil
}
