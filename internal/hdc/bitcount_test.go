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

func (r *naiveCounter) addPairs(pairs []XorPair) {
	for _, p := range pairs {
		r.add(func(i int) int { return pairBit(p, i) })
	}
}

func (r *naiveCounter) reset() {
	clear(r.counts)
	r.n = 0
}

// pairBit returns bit i of p's XOR (or, with Invert, XNOR) vector.
func pairBit(p XorPair, i int) int {
	v := p.A.Bit(i) ^ p.B.Bit(i)
	if p.Invert {
		v = 1 - v
	}
	return v
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
		// Several AddAll calls of random sizes, including single vectors.
		for k := 0; k < 1+rng.Intn(6); k++ {
			vs := randomVectors(d, rng.Intn(12), rng)
			c.AddAll(vs)
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
		cx.AddXorPairs([]XorPair{{A: a, B: b}})
		x := a.Bind(b)
		for i := 0; i < d; i++ {
			if cx.CountAt(i) != x.Bit(i) {
				return false
			}
		}
		// XNOR path: complement within dimension.
		cn := NewBitCounter(d)
		cn.AddXorPairs([]XorPair{{A: a, B: b, Invert: true}})
		for i := 0; i < d; i++ {
			if cn.CountAt(i) != 1-x.Bit(i) {
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
	// d not a multiple of 64: the complemented tail must not pollute
	// Popcount.
	const d = 70
	a := NewBinary(d)
	b := NewBinary(d)
	c := NewBitCounter(d)
	c.AddXorPairs([]XorPair{{A: a, B: b, Invert: true}}) // XNOR of zeros = all ones within d
	if got := c.Popcount(); got != d {
		t.Fatalf("popcount = %d, want %d", got, d)
	}
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
		bc.AddAll(vs)
		return bc.SignBipolar(tie).Equal(acc.Sign(tie))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestBitCounterReset(t *testing.T) {
	c := NewBitCounter(64)
	c.AddAll([]*Binary{RandomBinary(64, NewRNG(1))})
	c.Reset()
	if c.Count() != 0 || c.Popcount() != 0 {
		t.Fatal("reset incomplete")
	}
}

func TestBitCounterPanics(t *testing.T) {
	c := NewBitCounter(64)
	for _, fn := range []func(){
		// Operands narrower or wider than the counter must panic.
		func() { c.AddAll([]*Binary{NewBinary(63)}) },
		func() { c.AddAll([]*Binary{NewBinary(65)}) },
		func() { c.AddXorPairs([]XorPair{{A: NewBinary(64), B: NewBinary(63)}}) },
		func() { c.AddXorPairs([]XorPair{{A: NewBinary(65), B: NewBinary(64)}}) },
		func() { c.AddXorPairs([]XorPair{{A: NewBinary(128), B: NewBinary(128)}}) },
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
		c.AddXorPairs(pairs)
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
	c.AddXorPairs(pairs)
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
	pairs := make([]XorPair, 17)
	for i := range pairs {
		pairs[i] = XorPair{A: a, B: b, Invert: true}
	}
	c := NewBitCounter(d)
	dstBin := NewBinary(d)
	dstBip := NewBipolar(d)
	allocs := testing.AllocsPerRun(20, func() {
		c.Reset()
		c.AddXorPairs(pairs)
		c.SignBinaryInto(tie, dstBin)
		c.SignBipolarInto(tieB, dstBip)
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
	c.AddXorPairs(pairs)
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
