package hdc

import (
	"fmt"
	"testing"
)

// randomPairs draws n operand pairs with a mix of XOR and XNOR binds.
func randomPairs(d, n int, rng *RNG) []XorPair {
	pairs := make([]XorPair, n)
	for i := range pairs {
		pairs[i] = XorPair{A: RandomBinary(d, rng), B: RandomBinary(d, rng), Invert: rng.Intn(2) == 0}
	}
	return pairs
}

// TestAddXorPairsMatchesScalar pins the blocked carry-save path against
// the naive per-bit count and majority, across block-remainder
// boundaries, mixed invert flags, tail dimensions — and, via
// forEachKernelTier, every vector kernel tier this CPU supports. The
// sign is read first, off the byte lanes, then the counts.
func TestAddXorPairsMatchesScalar(t *testing.T) {
	forEachKernelTier(t, testAddXorPairsMatchesScalar)
}

func testAddXorPairsMatchesScalar(t *testing.T) {
	for _, d := range []int{1, 63, 64, 65, 100, 130, 517, 1024} {
		for n := 0; n <= 40; n++ {
			rng := NewRNG(uint64(d)<<16 | uint64(n))
			pairs := randomPairs(d, n, rng)
			c := NewBitCounter(d)
			c.AddXorPairs(pairs)
			ref := newNaiveCounter(d)
			ref.addPairs(pairs)
			label := fmt.Sprintf("d=%d n=%d", d, n)
			tie := RandomBinary(d, rng)
			ref.checkSign(t, label, tie, c.SignBinaryInto(tie, NewBinary(d)))
			ref.check(t, label, c)
		}
	}
}

// TestAddAllMatchesAdd pins the bulk carry-save add against n single
// adds of the naive reference — across block remainders, tail
// dimensions, calls long enough to flush the byte lanes, operands wider
// than a narrowed counter, and every supported kernel tier.
func TestAddAllMatchesAdd(t *testing.T) {
	forEachKernelTier(t, testAddAllMatchesAdd)
}

func testAddAllMatchesAdd(t *testing.T) {
	for _, d := range []int{1, 63, 64, 65, 100, 1000, 10007} {
		for _, n := range []int{0, 1, 7, 8, 9, 17, 32, 33, 130, 300} {
			rng := NewRNG(uint64(d)<<20 | uint64(n)<<4)
			vs := randomVectors(d, n, rng)
			c := NewBitCounter(d)
			c.AddAll(vs)
			ref := newNaiveCounter(d)
			ref.addAll(vs)
			ref.check(t, fmt.Sprintf("d=%d n=%d", d, n), c)
		}
		if d > 1 {
			// Full-width operands into a counter narrowed to d-1: only the
			// leading d-1 components count.
			vs := randomVectors(d, 20, NewRNG(uint64(d)))
			c := NewBitCounter(d)
			c.SetDim(d - 1)
			c.AddAll(vs)
			ref := newNaiveCounter(d - 1)
			ref.addAll(vs)
			ref.check(t, fmt.Sprintf("d=%d narrowed", d), c)
		}
	}
}

// TestAddXorPairsInterleaved mixes AddXorPairs and AddAll calls on one
// counter — the shapes the encoder and Model.Fit produce — with a
// majority read after each round, against the naive reference. The
// count passes 127 partway, so the reads take both the SWAR path and
// the int32 fallback.
func TestAddXorPairsInterleaved(t *testing.T) {
	const d = 200
	rng := NewRNG(99)
	c := NewBitCounter(d)
	ref := newNaiveCounter(d)
	for round := 0; round < 6; round++ {
		pairs := randomPairs(d, 3+round*5, rng)
		c.AddXorPairs(pairs)
		ref.addPairs(pairs)
		vs := randomVectors(d, 1+rng.Intn(20), rng)
		c.AddAll(vs)
		ref.addAll(vs)
		tie := RandomBinary(d, rng)
		ref.checkSign(t, fmt.Sprintf("round %d", round), tie, c.SignBinaryInto(tie, NewBinary(d)))
	}
	ref.check(t, "interleaved", c)
}

// TestBitCounterCountsPast255InOneCall carries components past the byte
// lanes' 255 inside a single AddAll or AddXorPairs call: every operand
// equals one vector, so each of its set bits counts n. The byte lanes
// must flush into the int32 tier in the middle of the call
// (addXorBlock8's guard) and before the drain. The counts, the majority
// through SignBinaryInto's int32 fallback (n > 127) and AddCounter's
// flushed fold must all match the naive reference; 255 is the last
// count a byte holds.
func TestBitCounterCountsPast255InOneCall(t *testing.T) {
	forEachKernelTier(t, testBitCounterCountsPast255InOneCall)
}

func testBitCounterCountsPast255InOneCall(t *testing.T) {
	for _, d := range []int{65, 1000} {
		rng := NewRNG(uint64(d) + 255)
		a, b, tie := RandomBinary(d, rng), RandomBinary(d, rng), RandomBinary(d, rng)
		for _, n := range []int{255, 256, 300, 1000} {
			vs := make([]*Binary, n)
			pairs := make([]XorPair, n)
			for i := range vs {
				vs[i] = a
				pairs[i] = XorPair{A: a, B: b, Invert: true}
			}
			for _, tc := range []struct {
				name string
				add  func(*BitCounter)
				ref  func(*naiveCounter)
			}{
				{"AddAll", func(c *BitCounter) { c.AddAll(vs) }, func(r *naiveCounter) { r.addAll(vs) }},
				{"AddXorPairs", func(c *BitCounter) { c.AddXorPairs(pairs) }, func(r *naiveCounter) { r.addPairs(pairs) }},
			} {
				label := fmt.Sprintf("%s d=%d n=%d", tc.name, d, n)
				ref := newNaiveCounter(d)
				tc.ref(ref)
				c := NewBitCounter(d)
				tc.add(c)
				ref.checkSign(t, label, tie, c.SignBinaryInto(tie, NewBinary(d)))
				ref.check(t, label, c)

				c = NewBitCounter(d)
				tc.add(c)
				acc := NewAccumulator(d)
				acc.AddCounter(c)
				if acc.Count() != n {
					t.Fatalf("%s: AddCounter count %d, want %d", label, acc.Count(), n)
				}
				for i, cnt := range ref.counts {
					if want := 2*cnt - int64(n); int64(acc.Sum(i)) != want {
						t.Fatalf("%s: AddCounter sum %d = %d, want %d", label, i, acc.Sum(i), want)
					}
				}
			}
		}
	}
}

// TestBitCounterOneCallTo127StaysInBytes pins the byte lanes' booking:
// a block books the operands it adds, not its worst-case overflow, and
// the drain books nothing, so a single AddAll or AddXorPairs call of 120
// to 127 operands keeps every count in the byte lanes (booking 16 per
// block and 15 per drain flushed every one of them past 120 into the
// int32 counts), and SignBinaryInto signs them on its SWAR path. Each
// sign must equal the naive per-bit reference.
func TestBitCounterOneCallTo127StaysInBytes(t *testing.T) {
	forEachKernelTier(t, testBitCounterOneCallTo127StaysInBytes)
}

func testBitCounterOneCallTo127StaysInBytes(t *testing.T) {
	for _, d := range []int{65, 1000, 10007} {
		rng := NewRNG(uint64(d) + 127)
		tie := RandomBinary(d, rng)
		for n := 120; n <= 127; n++ {
			vs := randomVectors(d, n, rng)
			pairs := randomPairs(d, n, rng)
			for _, tc := range []struct {
				name string
				add  func(*BitCounter)
				ref  func(*naiveCounter)
			}{
				{"AddAll", func(c *BitCounter) { c.AddAll(vs) }, func(r *naiveCounter) { r.addAll(vs) }},
				{"AddXorPairs", func(c *BitCounter) { c.AddXorPairs(pairs) }, func(r *naiveCounter) { r.addPairs(pairs) }},
			} {
				label := fmt.Sprintf("%s d=%d n=%d", tc.name, d, n)
				ref := newNaiveCounter(d)
				tc.ref(ref)
				c := NewBitCounter(d)
				tc.add(c)
				if c.countsDirty {
					t.Fatalf("%s: the call flushed into the int32 counts", label)
				}
				ref.checkSign(t, label, tie, c.SignBinaryInto(tie, NewBinary(d)))
				if c.countsDirty {
					t.Fatalf("%s: SignBinaryInto left the SWAR path", label)
				}
				ref.check(t, label, c)
			}
		}
	}
}

// TestBitCounterDifferential drives random interleavings of every
// mutating and observing operation against the naive per-bit reference
// — the audit of the carry-save → byte → int32 drain and flush logic —
// under every supported kernel tier.
func TestBitCounterDifferential(t *testing.T) {
	forEachKernelTier(t, testBitCounterDifferential)
}

func testBitCounterDifferential(t *testing.T) {
	for _, d := range []int{5, 64, 100, 130, 192} {
		for trial := 0; trial < 20; trial++ {
			rng := NewRNG(uint64(d)*1009 + uint64(trial))
			label := func(step int) string { return fmt.Sprintf("d=%d trial=%d step=%d", d, trial, step) }
			c := NewBitCounter(d)
			ref := newNaiveCounter(d)
			for step := 0; step < 60; step++ {
				switch rng.Intn(8) {
				case 0:
					vs := randomVectors(d, rng.Intn(20), rng)
					c.AddAll(vs)
					ref.addAll(vs)
				case 1:
					pairs := randomPairs(d, rng.Intn(20), rng)
					c.AddXorPairs(pairs)
					ref.addPairs(pairs)
				case 2:
					// Several full blocks in one call, so the weight-16
					// overflow fires inside the call.
					pairs := randomPairs(d, 16+rng.Intn(24), rng)
					c.AddXorPairs(pairs)
					ref.addPairs(pairs)
				case 3:
					// Long enough that the byte lanes flush inside the call.
					vs := randomVectors(d, 100+rng.Intn(200), rng)
					c.AddAll(vs)
					ref.addAll(vs)
				case 4:
					c.Reset()
					ref.reset()
				case 5:
					// Observe mid-stream: flush-then-continue must not lose
					// or double-count weight.
					i := rng.Intn(d)
					if got := c.CountAt(i); int64(got) != ref.counts[i] {
						t.Fatalf("%s: CountAt(%d)=%d, want %d", label(step), i, got, ref.counts[i])
					}
				case 6:
					tie := RandomBinary(d, rng)
					sign := c.SignBinaryInto(tie, NewBinary(d))
					ref.checkSign(t, label(step)+" SignBinaryInto", tie, sign)
					if !c.SignBipolar(tie.UnpackBipolar()).PackBinary().Equal(sign) {
						t.Fatalf("%s: SignBipolar differs from SignBinaryInto", label(step))
					}
				case 7:
					// The fold into class sums, off the byte lanes or the
					// int32 counts; the counter keeps its counts.
					acc := NewAccumulator(d)
					acc.AddCounter(c)
					for i, cnt := range ref.counts {
						if want := 2*cnt - int64(ref.n); int64(acc.Sum(i)) != want {
							t.Fatalf("%s: AddCounter sum %d = %d, want %d", label(step), i, acc.Sum(i), want)
						}
					}
				}
			}
			ref.check(t, fmt.Sprintf("d=%d trial=%d final", d, trial), c)
		}
	}
}

// TestSignOverflowBoundary pins the 2*cnt overflow fix: with counts at
// 2³⁰+1 the old int32 comparison wrapped negative and reported the
// minority sign. No test can add 2³⁰ vectors, so the counter is set
// to the state they would leave.
func TestSignOverflowBoundary(t *testing.T) {
	const d = 64
	c := NewBitCounter(d)
	// 2³⁰+2 vectors, component 0 set in all but one of them: a strict
	// majority whose doubled count exceeds MaxInt32. No other component
	// was ever set.
	c.counts[0] = 1<<30 + 1
	c.countsDirty = true
	c.n = 1<<30 + 2
	tie := NewBinary(d)
	sign := c.SignBinaryInto(tie, NewBinary(d))
	if sign.Bit(0) != 1 {
		t.Fatal("SignBinaryInto: majority bit lost to int32 wraparound")
	}
	for i := 1; i < d; i++ {
		if sign.Bit(i) != 0 {
			t.Fatalf("SignBinaryInto: bit %d set without any votes", i)
		}
	}
	tieB := NewBipolar(d)
	signB := c.SignBipolarInto(tieB, NewBipolar(d))
	if signB.At(0) != 1 {
		t.Fatal("SignBipolarInto: majority component lost to int32 wraparound")
	}
	if signB.At(1) != -1 {
		t.Fatal("SignBipolarInto: minority component not -1")
	}
}

// TestBitCounterAddCap verifies the documented MaxAdds cap: the counter
// panics instead of silently overflowing its int32 counts. The counter
// is set to the state MaxAdds all-zero vectors would leave.
func TestBitCounterAddCap(t *testing.T) {
	const d = 64
	a, b := NewBinary(d), NewBinary(d)
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	c := NewBitCounter(d)
	c.n = MaxAdds
	mustPanic("AddXorPairs past cap", func() { c.AddXorPairs([]XorPair{{A: a, B: b}}) })
	mustPanic("AddAll past cap", func() { c.AddAll([]*Binary{a}) })
	// Empty calls add nothing and stay legal at the cap.
	c.AddXorPairs(nil)
	c.AddAll(nil)
	if got := c.Count(); got != MaxAdds {
		t.Fatalf("count %d, want %d", got, MaxAdds)
	}
	// At the cap exactly, the majority still reads: every count is 0.
	if got := c.SignBinaryInto(RandomBinary(d, NewRNG(1)), NewBinary(d)); !got.Equal(NewBinary(d)) {
		t.Fatal("SignBinaryInto at the cap set bits no vector had")
	}
}

// TestCountsInto verifies the copying accessor: the returned slice is the
// caller's, and corrupting it cannot disturb later accumulation.
func TestCountsInto(t *testing.T) {
	const d = 100
	rng := NewRNG(12)
	c := NewBitCounter(d)
	a, b := RandomBinary(d, rng), RandomBinary(d, rng)
	first, second := []XorPair{{A: a, B: b, Invert: true}}, []XorPair{{A: b, B: a}}
	c.AddXorPairs(first)
	dst := make([]int32, d)
	if got := c.CountsInto(dst); &got[0] != &dst[0] {
		t.Fatal("CountsInto did not return dst")
	}
	// Corrupt the returned slice, keep accumulating, and compare against a
	// pristine reference: the write-through must not reach the counter.
	for i := range dst {
		dst[i] = 999
	}
	c.AddXorPairs(second)
	ref := newNaiveCounter(d)
	ref.addPairs(first)
	ref.addPairs(second)
	ref.check(t, "post-corruption", c)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on short dst")
		}
	}()
	c.CountsInto(make([]int32, d-1))
}

// TestSignBinarySWARPathMatchesSlow forces both sign implementations on
// identical state and compares them, including exact ties and tail
// dimensions — the fast path must be indistinguishable.
func TestSignBinarySWARPathMatchesSlow(t *testing.T) {
	for _, d := range []int{64, 100, 130, 517} {
		for trial := 0; trial < 30; trial++ {
			rng := NewRNG(uint64(d)*131 + uint64(trial))
			n := rng.Intn(126) // keep n <= 127 so the SWAR path is eligible
			fast := NewBitCounter(d)
			slow := NewBitCounter(d)
			pairs := randomPairs(d, n, rng)
			fast.AddXorPairs(pairs)
			slow.AddXorPairs(pairs)
			tie := RandomBinary(d, rng)
			got := fast.SignBinary(tie) // SWAR-eligible
			slow.CountAt(0)             // force a flush: countsDirty disables SWAR
			want := slow.SignBinary(tie)
			if !got.Equal(want) {
				t.Fatalf("d=%d n=%d: SWAR sign differs from flushed sign", d, n)
			}
		}
	}
}

func BenchmarkBitCounterAddXorPairs(b *testing.B) {
	rng := NewRNG(1)
	const d, edges = 10000, 64
	pairs := make([]XorPair, edges)
	for i := range pairs {
		pairs[i] = XorPair{A: RandomBinary(d, rng), B: RandomBinary(d, rng), Invert: true}
	}
	c := NewBitCounter(d)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Reset()
		c.AddXorPairs(pairs)
	}
}
