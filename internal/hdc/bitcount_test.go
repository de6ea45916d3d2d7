package hdc

import (
	"fmt"
	"testing"
	"testing/quick"
)

// Test-only observers. Program code reads a BitCounter only through its
// sign paths and Accumulator.AddCounter; these read the per-component
// counts through the same flush the sign fallbacks use.

// CountAt returns the accumulated count of component i.
func (c *BitCounter) CountAt(i int) int {
	if i < 0 || i >= c.d {
		panic(fmt.Sprintf("hdc: component %d out of range", i))
	}
	c.flush()
	return int(c.counts[i])
}

// CountsInto flushes the counter and copies its per-component counts
// into dst, which must have length d; returns dst.
func (c *BitCounter) CountsInto(dst []int32) []int32 {
	if len(dst) != c.d {
		panic(fmt.Sprintf("hdc: destination length %d, want %d", len(dst), c.d))
	}
	c.flush()
	copy(dst, c.counts)
	return dst
}

// Popcount returns the sum of all per-component counts.
func (c *BitCounter) Popcount() int {
	c.flush()
	total := 0
	for _, v := range c.counts {
		total += int(v)
	}
	return total
}

// materializeCounts allocates the int32 tier as the first flush does,
// for tests that set counts directly.
func (c *BitCounter) materializeCounts() { c.flush() }

// SignBipolar is SignBipolarInto into a fresh vector: the counter's
// majority as a bipolar hypervector, which matches Accumulator.Sign under
// the bit↔bipolar mapping exactly.
func (c *BitCounter) SignBipolar(tie *Bipolar) *Bipolar {
	return c.SignBipolarInto(tie, &Bipolar{comps: make([]int8, c.d)})
}

// CopyFrom overwrites b with src's components; dimensions must match.
// Returns b.
func (b *Binary) CopyFrom(src *Binary) *Binary {
	if b.d != src.d {
		panic(fmt.Sprintf("hdc: dimension mismatch %d vs %d", b.d, src.d))
	}
	copy(b.words, src.words)
	return b
}

// SignBinary is SignBinaryInto into a fresh vector.
func (c *BitCounter) SignBinary(tie *Binary) *Binary {
	return c.SignBinaryInto(tie, NewBinary(c.d))
}

// naiveCounter is the per-bit reference the BitCounter tests check
// against: one int64 count per component, fed one bit at a time.
type naiveCounter struct {
	counts []int64
	n      int
}

func newNaiveCounter(d int) *naiveCounter {
	return &naiveCounter{counts: make([]int64, d)}
}

// add counts one vector, given by its bit function.
func (r *naiveCounter) add(bit func(i int) int) {
	for i := range r.counts {
		r.counts[i] += int64(bit(i))
	}
	r.n++
}

func (r *naiveCounter) addAll(vs []*Binary) {
	for _, v := range vs {
		r.add(v.Bit)
	}
}

func (r *naiveCounter) addPairs(pairs []xorPair) {
	for _, p := range pairs {
		r.add(func(i int) int { return p.A.Bit(i) ^ p.B.Bit(i) })
	}
}

func (r *naiveCounter) reset() {
	clear(r.counts)
	r.n = 0
}

// xorPair names two vectors whose XOR a test adds to a counter. The keyed
// entry points see a test's pairs as the rows of a slab (pairKeys).
type xorPair struct{ A, B *Binary }

// pairKeys copies the vectors of pairs into the rows of a fresh slab,
// one row per operand and an all-zero row last, and returns it with one
// key per pair.
func pairKeys(pairs []xorPair) (slab, keys []uint64) {
	if len(pairs) == 0 {
		return nil, nil
	}
	d := pairs[0].A.d
	st := SlabStride(d)
	slab = make([]uint64, (2*len(pairs)+1)*st)
	for i, p := range pairs {
		if p.A.d != d || p.B.d != d {
			panic(fmt.Sprintf("hdc: test pair of dimensions %d and %d, want %d", p.A.d, p.B.d, d))
		}
		copy(slab[2*i*st:], p.A.words)
		copy(slab[(2*i+1)*st:], p.B.words)
		keys = append(keys, Key(2*i*st, (2*i+1)*st))
	}
	return slab, keys
}

// addPairs adds the XOR of every pair to c through AddXorKeys.
func addPairs(c *BitCounter, pairs []xorPair) {
	slab, keys := pairKeys(pairs)
	if len(keys) == 0 {
		slab = make([]uint64, c.stride)
	} else {
		c.checkDim(pairs[0].A.d)
	}
	c.AddXorKeys(slab, keys)
}

// addAll adds every vector of vs to c through AddXorKeys, each keyed
// against a zero row: the bundle of whole vectors.
func addAll(c *BitCounter, vs []*Binary) {
	pairs := make([]xorPair, len(vs))
	for i, v := range vs {
		pairs[i] = xorPair{A: v, B: NewBinary(v.d)}
	}
	addPairs(c, pairs)
}

// signSmall is SignXnorKeysSmallInto on pairs.
func signSmall(c *BitCounter, pairs []xorPair, tie, dst *Binary) *Binary {
	slab, keys := pairKeys(pairs)
	return c.SignXnorKeysSmallInto(slab, keys, tie, dst)
}

// xnorSign is the majority of the complements of r's vectors — the rule
// of SignXnorInto and the small sign: bit i is set when 2·countᵢ < n,
// cleared when it is above, and tie's bit on equality.
func (r *naiveCounter) xnorSign(tie *Binary) *Binary {
	out := NewBinary(len(r.counts))
	n := int64(r.n)
	for i, cnt := range r.counts {
		if 2*cnt < n || 2*cnt == n && tie.Bit(i) == 1 {
			out.words[i>>6] |= 1 << uint(i&63)
		}
	}
	return out
}

// checkXnorSign fails t unless got is r's complement majority under tie.
func (r *naiveCounter) checkXnorSign(t testing.TB, label string, tie, got *Binary) {
	t.Helper()
	if want := r.xnorSign(tie); !got.Equal(want) {
		t.Fatalf("%s: XNOR sign differs from the per-bit majority", label)
	}
}

// sign is the majority rule every sign path implements: bit i is set
// when 2·countᵢ > n, cleared when it is below, and tie's bit on equality.
func (r *naiveCounter) sign(tie *Binary) *Binary {
	out := NewBinary(len(r.counts))
	n := int64(r.n)
	for i, cnt := range r.counts {
		if 2*cnt > n || 2*cnt == n && tie.Bit(i) == 1 {
			out.words[i>>6] |= 1 << uint(i&63)
		}
	}
	return out
}

// check fails t unless c holds r's vector count and per-component counts.
func (r *naiveCounter) check(t testing.TB, label string, c *BitCounter) {
	t.Helper()
	if c.Count() != r.n {
		t.Fatalf("%s: count %d, want %d", label, c.Count(), r.n)
	}
	got := c.CountsInto(make([]int32, len(r.counts)))
	for i, want := range r.counts {
		if int64(got[i]) != want {
			t.Fatalf("%s: component %d = %d, want %d", label, i, got[i], want)
		}
	}
}

// checkSign fails t unless got is r's majority under tie.
func (r *naiveCounter) checkSign(t testing.TB, label string, tie, got *Binary) {
	t.Helper()
	want := r.sign(tie)
	for i, cnt := range r.counts {
		if got.Bit(i) != want.Bit(i) {
			t.Fatalf("%s: sign bit %d = %d, want %d (count %d of %d)", label, i, got.Bit(i), want.Bit(i), cnt, r.n)
		}
	}
	if !got.Equal(want) {
		t.Fatalf("%s: sign has bits past dimension %d", label, len(r.counts))
	}
}

// randomSlab draws a slab of n random d-dimensional rows and an all-zero
// row last, and returns it with views of the random rows.
func randomSlab(d, n int, rng *RNG) ([]uint64, []*Binary) {
	slab := make([]uint64, (n+1)*SlabStride(d))
	for r := range n {
		FillRandomRow(slab[r*SlabStride(d):], d, rng)
	}
	return slab, BinaryRows(d, slab, n)
}

// randomVectors draws n random binary vectors of dimension d.
func randomVectors(d, n int, rng *RNG) []*Binary {
	vs := make([]*Binary, n)
	for i := range vs {
		vs[i] = RandomBinary(d, rng)
	}
	return vs
}

func TestBitCounterMatchesNaive(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		const d = 130
		c := NewBitCounter(d)
		ref := newNaiveCounter(d)
		// Several whole-vector AddXorKeys calls of random sizes, including single vectors.
		for k := 0; k < 1+rng.Intn(6); k++ {
			vs := randomVectors(d, rng.Intn(12), rng)
			addAll(c, vs)
			ref.addAll(vs)
		}
		if c.Count() != ref.n {
			return false
		}
		for i := 0; i < d; i++ {
			if int64(c.CountAt(i)) != ref.counts[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestBitCounterAddXorMatchesExplicit(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		const d = 100
		a := RandomBinary(d, rng)
		b := RandomBinary(d, rng)
		// XOR path.
		cx := NewBitCounter(d)
		addPairs(cx, []xorPair{{A: a, B: b}})
		x := a.Bind(b)
		for i := 0; i < d; i++ {
			if cx.CountAt(i) != x.Bit(i) {
				return false
			}
		}
		// XNOR: the complement majority of one operand is its
		// complement within the dimension.
		xn := cx.SignXnorInto(RandomBinary(d, rng), NewBinary(d))
		for i := 0; i < d; i++ {
			if xn.Bit(i) != 1-x.Bit(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestBitCounterXnorTailMasked(t *testing.T) {
	// d not a multiple of 64: the complemented compare must not set bits
	// past the dimension, on the counter path or the small sign.
	forEachKernelTier(t, func(t *testing.T) {
		for _, d := range []int{70, 130, 1000} {
			a := NewBinary(d)
			want := NewBinary(d) // XNOR of zeros = all ones within d
			for i := 0; i < d; i++ {
				want.Flip(i)
			}
			c := NewBitCounter(d)
			addPairs(c, []xorPair{{A: a, B: a}})
			if got := c.SignXnorInto(NewBinary(d), NewBinary(d)); !got.Equal(want) {
				t.Fatalf("d=%d: SignXnorInto of a zero XOR is not all ones within d", d)
			}
			if got := signSmall(c, []xorPair{{A: a, B: a}}, NewBinary(d), NewBinary(d)); !got.Equal(want) {
				t.Fatalf("d=%d: small sign of a zero XOR is not all ones within d", d)
			}
		}
	})
}

func TestBitCounterSignBipolarMatchesAccumulator(t *testing.T) {
	// The packed majority must agree bit-for-bit with the int32
	// accumulator under the bit↔bipolar mapping, ties included.
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		const d = 96
		tie := RandomBipolar(d, rng)
		acc := NewAccumulator(d)
		vs := randomVectors(d, 2+rng.Intn(10), rng) // even counts happen, exercising ties
		for _, v := range vs {
			acc.Add(v.UnpackBipolar())
		}
		bc := NewBitCounter(d)
		addAll(bc, vs)
		return bc.SignBipolar(tie).Equal(acc.Sign(tie))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestBitCounterReset(t *testing.T) {
	c := NewBitCounter(64)
	addAll(c, []*Binary{RandomBinary(64, NewRNG(1))})
	c.Reset()
	if c.Count() != 0 || c.Popcount() != 0 {
		t.Fatal("reset incomplete")
	}
}

func TestBitCounterPanics(t *testing.T) {
	c := NewBitCounter(64)
	for _, fn := range []func(){
		// Operands narrower or wider than the counter must panic.
		func() { addAll(c, []*Binary{NewBinary(63)}) },
		func() { addAll(c, []*Binary{NewBinary(65)}) },
		func() { addPairs(c, []xorPair{{A: NewBinary(64), B: NewBinary(63)}}) },
		func() { addPairs(c, []xorPair{{A: NewBinary(65), B: NewBinary(64)}}) },
		func() { addPairs(c, []xorPair{{A: NewBinary(128), B: NewBinary(128)}}) },
		func() { NewBitCounter(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestSignIntoVariantsMatchAllocatingOnes(t *testing.T) {
	const d = 517 // odd tail exercises the mask
	rng := NewRNG(41)
	tieB := RandomBipolar(d, rng)
	tie := tieB.PackBinary()
	c := NewBitCounter(d)
	dstBin := NewBinary(d)
	dstBip := NewBipolar(d)
	for round := 0; round < 3; round++ {
		c.Reset()
		// Even pair counts produce exact ties that exercise the tie path.
		pairs := randomPairs(d, 4+2*round, rng)
		addPairs(c, pairs)
		ref := newNaiveCounter(d)
		ref.addPairs(pairs)
		gotBin := c.SignBinaryInto(tie, dstBin)
		if gotBin != dstBin {
			t.Fatal("SignBinaryInto did not return dst")
		}
		ref.checkSign(t, fmt.Sprintf("round %d: SignBinaryInto", round), tie, gotBin)
		wantBip := c.SignBipolar(tieB)
		gotBip := c.SignBipolarInto(tieB, dstBip)
		if gotBip != dstBip {
			t.Fatal("SignBipolarInto did not return dst")
		}
		if !wantBip.Equal(gotBip) {
			t.Fatalf("round %d: SignBipolarInto differs from SignBipolar", round)
		}
		if !gotBip.PackBinary().Equal(gotBin) {
			t.Fatalf("round %d: SignBipolarInto differs from SignBinaryInto", round)
		}
	}
}

func TestSignBinaryIntoOverwritesStaleBits(t *testing.T) {
	const d = 128
	rng := NewRNG(42)
	tie := RandomBinary(d, rng)
	c := NewBitCounter(d)
	// Fill dst with garbage; a correct Into must clear every word first.
	dst := RandomBinary(d, rng)
	pairs := randomPairs(d, 3, rng)
	addPairs(c, pairs)
	ref := newNaiveCounter(d)
	ref.addPairs(pairs)
	ref.checkSign(t, "stale dst", tie, c.SignBinaryInto(tie, dst))
}

func TestSignIntoAllocationFree(t *testing.T) {
	const d = 2048
	rng := NewRNG(43)
	tieB := RandomBipolar(d, rng)
	tie := tieB.PackBinary()
	a, b := RandomBinary(d, rng), RandomBinary(d, rng)
	pairs := make([]xorPair, 17)
	for i := range pairs {
		pairs[i] = xorPair{A: a, B: b}
	}
	slab, keys := pairKeys(pairs)
	c := NewBitCounter(d)
	dstBin := NewBinary(d)
	dstBip := NewBipolar(d)
	allocs := testing.AllocsPerRun(20, func() {
		c.Reset()
		c.AddXorKeys(slab, keys)
		c.SignBinaryInto(tie, dstBin)
		c.SignXnorInto(tie, dstBin)
		c.SignBipolarInto(tieB, dstBip)
		c.SignXnorKeysSmallInto(slab, keys, tie, dstBin)
	})
	if allocs != 0 {
		t.Fatalf("reset+accumulate+sign allocated %v times per run, want 0", allocs)
	}
}

func TestSignIntoDimensionPanics(t *testing.T) {
	c := NewBitCounter(64)
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("SignBinaryInto dst", func() { c.SignBinaryInto(NewBinary(64), NewBinary(65)) })
	mustPanic("SignBinaryInto narrow tie", func() { c.SignBinaryInto(NewBinary(63), NewBinary(64)) })
	mustPanic("SignBinaryInto wide tie", func() { c.SignBinaryInto(NewBinary(65), NewBinary(64)) })
	mustPanic("SignBipolarInto dst", func() { c.SignBipolarInto(NewBipolar(64), NewBipolar(63)) })
}

func TestSignBinaryIntoAliasingTie(t *testing.T) {
	const d = 130
	rng := NewRNG(44)
	c := NewBitCounter(d)
	// Even pair count forces exact ties, the only components that read tie.
	pairs := randomPairs(d, 2, rng)
	addPairs(c, pairs)
	ref := newNaiveCounter(d)
	ref.addPairs(pairs)
	tie := RandomBinary(d, rng)
	dst := tie.Clone()
	ref.checkSign(t, "dst aliasing tie", tie, c.SignBinaryInto(dst, dst))
}

// TestSignBinaryIntoEmptyWideTie: an empty bundle — an empty graph's —
// signs to the tie at every tail width, and a tie wider than the
// counter panics instead of lending it bits past the counter's
// dimension.
func TestSignBinaryIntoEmptyWideTie(t *testing.T) {
	for _, d := range []int{256, 200, 70, 1} {
		tie := RandomBinary(d, NewRNG(uint64(d)))
		c := NewBitCounter(d)
		if got := c.SignBinaryInto(tie, NewBinary(d)); !got.Equal(tie) {
			t.Fatalf("d=%d: empty bundle did not sign to the tie", d)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("d=%d: a tie of dimension %d did not panic", d, d+1)
				}
			}()
			c.SignBinaryInto(RandomBinary(d+1, NewRNG(1)), NewBinary(d))
		}()
	}
}
