package hdc

import (
	"fmt"
	"math/bits"
)

// Binary is a bit-packed binary hypervector: component i is bit i of the
// underlying word array. Binary hypervectors support the same algebra as
// bipolar ones under the mapping bit 1 ↔ +1, bit 0 ↔ -1: binding becomes
// XNOR (implemented as XOR of one operand with the complement, but we keep
// plain XOR and flip the similarity sign convention — see Bind), and
// similarity is measured through the Hamming distance via popcount.
//
// The binary backend exists for the memory/throughput ablation (A5 in
// DESIGN.md): it stores 64 components per word and replaces the int8
// multiply-add inner loops with XOR+popcount.
type Binary struct {
	d     int
	words []uint64
}

// NewBinary returns an all-zero binary hypervector of dimension d.
func NewBinary(d int) *Binary {
	if d <= 0 {
		panic("hdc: non-positive dimension")
	}
	return &Binary{d: d, words: make([]uint64, (d+63)/64)}
}

// RandomBinary draws a uniform random binary hypervector of dimension d.
// It equals RandomBipolar(d, rng).PackBinary() for a generator in the
// same state: both take component i from bit i mod 64 of the generator's
// ⌊i/64⌋-th output.
func RandomBinary(d int, rng *RNG) *Binary {
	b := NewBinary(d)
	FillRandomRow(b.words, d, rng)
	return b
}

// FillRandomRow is RandomBinary in place, with no allocation: it
// overwrites the ⌈d/64⌉ words at the start of row — a vector's words or
// a slab row — with the next outputs of rng, the last one masked to the
// dimension, and leaves the rest of row alone.
func FillRandomRow(row []uint64, d int, rng *RNG) {
	row = row[:(d+63)/64]
	for i := range row {
		row[i] = rng.Uint64()
	}
	if r := d & 63; r != 0 {
		row[len(row)-1] &= (1 << uint(r)) - 1
	}
}

// BinaryRows returns views of the first n rows of slab, a slab of
// d-dimensional rows (SlabStride): row r is a Binary whose words alias
// slab[r·stride, r·stride + ⌈d/64⌉). Writing a view writes the slab.
func BinaryRows(d int, slab []uint64, n int) []*Binary {
	w, st := (d+63)/64, SlabStride(d)
	views, rows := make([]Binary, n), make([]*Binary, n)
	for r := range rows {
		views[r] = Binary{d: d, words: slab[r*st : r*st+w : r*st+w]}
		rows[r] = &views[r]
	}
	return rows
}

// Dim returns the dimensionality of the hypervector.
func (b *Binary) Dim() int { return b.d }

// Bit returns component i as 0 or 1.
func (b *Binary) Bit(i int) int {
	return int(b.words[i>>6] >> uint(i&63) & 1)
}

// Flip negates component i (bit 1 ↔ bit 0), the packed analogue of a
// bipolar sign flip; used to model faulty hypervector memory.
func (b *Binary) Flip(i int) {
	if i < 0 || i >= b.d {
		panic(fmt.Sprintf("hdc: component %d out of range [0,%d)", i, b.d))
	}
	b.words[i>>6] ^= 1 << uint(i&63)
}

// Words exposes the underlying word array (64 components per word, little
// endian within the word). The slice is shared with b and must be treated
// as read-only; it exists for serialization and SWAR consumers.
func (b *Binary) Words() []uint64 { return b.words }

// BinaryFromWords builds a binary hypervector of dimension d from a packed
// word slice as produced by Words. The slice is copied; unused tail bits
// beyond d are rejected so round-tripped vectors stay canonical.
func BinaryFromWords(d int, words []uint64) (*Binary, error) {
	if d <= 0 {
		return nil, fmt.Errorf("hdc: non-positive dimension %d", d)
	}
	if want := (d + 63) / 64; len(words) != want {
		return nil, fmt.Errorf("hdc: %d words for dimension %d, want %d", len(words), d, want)
	}
	if r := d & 63; r != 0 && words[len(words)-1]&^((1<<uint(r))-1) != 0 {
		return nil, fmt.Errorf("hdc: tail bits beyond dimension %d are set", d)
	}
	w := make([]uint64, len(words))
	copy(w, words)
	return &Binary{d: d, words: w}, nil
}

// Clone returns an independent copy of b.
func (b *Binary) Clone() *Binary {
	w := make([]uint64, len(b.words))
	copy(w, b.words)
	return &Binary{d: b.d, words: w}
}

// Equal reports whether b and c are identical.
func (b *Binary) Equal(c *Binary) bool {
	if b.d != c.d {
		return false
	}
	for i, w := range b.words {
		if c.words[i] != w {
			return false
		}
	}
	return true
}

// Bind returns the XOR of b and c. Under the bit↔bipolar mapping, XOR
// corresponds to the *negated* element-wise product; since the negation is
// applied uniformly to every component it preserves all similarity
// geometry and remains self-inverse, so it is the standard binding for
// binary HDC.
func (b *Binary) Bind(c *Binary) *Binary {
	if b.d != c.d {
		panic(fmt.Sprintf("hdc: dimension mismatch %d vs %d", b.d, c.d))
	}
	out := &Binary{d: b.d, words: make([]uint64, len(b.words))}
	for i := range out.words {
		out.words[i] = b.words[i] ^ c.words[i]
	}
	return out
}

// Permute returns b cyclically shifted right by k bit positions.
func (b *Binary) Permute(k int) *Binary {
	d := b.d
	k = ((k % d) + d) % d
	if k == 0 {
		return b.Clone()
	}
	out := NewBinary(d)
	for i := 0; i < d; i++ {
		if b.Bit(i) == 1 {
			j := i + k
			if j >= d {
				j -= d
			}
			out.words[j>>6] |= 1 << uint(j&63)
		}
	}
	return out
}

// Hamming returns the number of differing components, computed with
// per-word XOR + popcount.
func (b *Binary) Hamming(c *Binary) int {
	if b.d != c.d {
		panic(fmt.Sprintf("hdc: dimension mismatch %d vs %d", b.d, c.d))
	}
	h := 0
	for i, w := range b.words {
		h += bits.OnesCount64(w ^ c.words[i])
	}
	return h
}

// Cosine returns the bipolar-equivalent cosine similarity,
// 1 - 2*Hamming/d, which equals the cosine of the corresponding
// bipolar vectors and lies in [-1, 1].
func (b *Binary) Cosine(c *Binary) float64 {
	return 1 - 2*float64(b.Hamming(c))/float64(b.d)
}

// UnpackBipolar converts b to the bipolar representation, mapping bit 1 to
// +1 and bit 0 to -1.
func (b *Binary) UnpackBipolar() *Bipolar {
	c := make([]int8, b.d)
	for i := range c {
		c[i] = int8(b.words[i>>6]>>uint(i&63)&1)*2 - 1
	}
	return &Bipolar{comps: c}
}

// String renders a short diagnostic form.
func (b *Binary) String() string {
	n := b.d
	show := n
	if show > 8 {
		show = 8
	}
	buf := make([]byte, show)
	for i := 0; i < show; i++ {
		buf[i] = byte('0' + b.Bit(i))
	}
	suffix := ""
	if n > show {
		suffix = "..."
	}
	return fmt.Sprintf("Binary(d=%d, %s%s)", n, buf, suffix)
}
