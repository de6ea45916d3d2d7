package hdc

import (
	"fmt"
	"testing"
)

// randomPairs draws n operand pairs of random vectors.
func randomPairs(d, n int, rng *RNG) []xorPair {
	pairs := make([]xorPair, n)
	for i := range pairs {
		pairs[i] = xorPair{A: RandomBinary(d, rng), B: RandomBinary(d, rng)}
	}
	return pairs
}

// TestAddXorKeysMatchesScalar pins the blocked carry-save path against
// the naive per-bit count and majority, across block-remainder
// boundaries, mixed invert flags, tail dimensions — and, via
// forEachKernelTier, every vector kernel tier this CPU supports. The
// sign is read first, off the byte lanes, then the counts.
func TestAddXorKeysMatchesScalar(t *testing.T) {
	forEachKernelTier(t, testAddXorKeysMatchesScalar)
}

func testAddXorKeysMatchesScalar(t *testing.T) {
	for _, d := range []int{1, 63, 64, 65, 100, 130, 517, 1024} {
		for n := 0; n <= 40; n++ {
			rng := NewRNG(uint64(d)<<16 | uint64(n))
			pairs := randomPairs(d, n, rng)
			c := NewBitCounter(d)
			addPairs(c, pairs)
			ref := newNaiveCounter(d)
			ref.addPairs(pairs)
			label := fmt.Sprintf("d=%d n=%d", d, n)
			tie := RandomBinary(d, rng)
			ref.checkSign(t, label, tie, c.SignBinaryInto(tie, NewBinary(d)))
			ref.check(t, label, c)
		}
	}
}

// TestAddAllMatchesAdd pins the bulk carry-save add of whole vectors,
// each keyed against a zero row, against n single adds of the naive
// reference — across block remainders, tail
// dimensions, calls long enough to flush the byte lanes, and every
// supported kernel tier.
func TestAddAllMatchesAdd(t *testing.T) {
	forEachKernelTier(t, testAddAllMatchesAdd)
}

func testAddAllMatchesAdd(t *testing.T) {
	for _, d := range []int{1, 63, 64, 65, 100, 1000, 10007} {
		for _, n := range []int{0, 1, 7, 8, 9, 17, 32, 33, 130, 300} {
			rng := NewRNG(uint64(d)<<20 | uint64(n)<<4)
			vs := randomVectors(d, n, rng)
			c := NewBitCounter(d)
			addAll(c, vs)
			ref := newNaiveCounter(d)
			ref.addAll(vs)
			ref.check(t, fmt.Sprintf("d=%d n=%d", d, n), c)
		}
	}
}

// TestAddXorKeysInterleaved mixes pair and whole-vector AddXorKeys calls
// on one counter — the shapes the encoder and Model.Fit produce — with a
// majority read after each round, against the naive reference. The
// count passes 127 partway, so the reads take both the SWAR path and
// the int32 fallback.
func TestAddXorKeysInterleaved(t *testing.T) {
	const d = 200
	rng := NewRNG(99)
	c := NewBitCounter(d)
	ref := newNaiveCounter(d)
	for round := 0; round < 6; round++ {
		pairs := randomPairs(d, 3+round*5, rng)
		addPairs(c, pairs)
		ref.addPairs(pairs)
		vs := randomVectors(d, 1+rng.Intn(20), rng)
		addAll(c, vs)
		ref.addAll(vs)
		tie := RandomBinary(d, rng)
		ref.checkSign(t, fmt.Sprintf("round %d", round), tie, c.SignBinaryInto(tie, NewBinary(d)))
	}
	ref.check(t, "interleaved", c)
}

// TestBitCounterCountsPast255InOneCall carries components past the byte
// lanes' 255 inside a single whole-vector or pair AddXorKeys call: every
// operand equals one vector, so each of its set bits counts n. The byte lanes
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
			pairs := make([]xorPair, n)
			for i := range vs {
				vs[i] = a
				pairs[i] = xorPair{A: a, B: b}
			}
			for _, tc := range []struct {
				name string
				add  func(*BitCounter)
				ref  func(*naiveCounter)
			}{
				{"vectors", func(c *BitCounter) { addAll(c, vs) }, func(r *naiveCounter) { r.addAll(vs) }},
				{"pairs", func(c *BitCounter) { addPairs(c, pairs) }, func(r *naiveCounter) { r.addPairs(pairs) }},
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
// the drain books nothing, so a single whole-vector or pair AddXorKeys call of 120
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
				{"vectors", func(c *BitCounter) { addAll(c, vs) }, func(r *naiveCounter) { r.addAll(vs) }},
				{"pairs", func(c *BitCounter) { addPairs(c, pairs) }, func(r *naiveCounter) { r.addPairs(pairs) }},
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

// TestBitCounterInt32CountsOnFirstFlush: the int32 tier is allocated by
// the first flush, not by NewBitCounter. A counter that signs and folds
// bundles of at most 127 operands — through whole-vector and pair AddXorKeys and the
// small sign, across Reset — never holds it and matches the naive
// reference throughout; so does the int8 sign of a counter that never
// flushed. The first bundle past 255 units of weight allocates it and
// still matches.
func TestBitCounterInt32CountsOnFirstFlush(t *testing.T) {
	forEachKernelTier(t, testBitCounterInt32CountsOnFirstFlush)
}

func testBitCounterInt32CountsOnFirstFlush(t *testing.T) {
	for _, d := range []int{1000, 10007} {
		rng := NewRNG(uint64(d) + 1)
		tie := RandomBinary(d, rng)
		c := NewBitCounter(d)
		if empty := c.SignBipolarInto(tie.UnpackBipolar(), NewBipolar(d)); !empty.PackBinary().Equal(tie) {
			t.Fatalf("d=%d: empty counter's bipolar sign is not the tie", d)
		}
		c = NewBitCounter(d)
		acc := NewAccumulator(d)
		ref := newNaiveCounter(d)
		bundle := newNaiveCounter(d)
		for _, n := range []int{1, 8, 63, 64, 127} {
			label := fmt.Sprintf("d=%d n=%d", d, n)
			vs := randomVectors(d, n, rng)
			pairs := randomPairs(d, n, rng)
			c.Reset()
			addAll(c, vs)
			bundle.reset()
			bundle.addAll(vs)
			bundle.checkSign(t, label+" vectors", tie, c.SignBinaryInto(tie, NewBinary(d)))
			c.Reset()
			addPairs(c, pairs)
			bundle.reset()
			bundle.addPairs(pairs)
			bundle.checkSign(t, label+" pairs", tie, c.SignBinaryInto(tie, NewBinary(d)))
			if n <= MaxSmallSign {
				bundle.checkXnorSign(t, label+" small sign", tie, signSmall(c, pairs, tie, NewBinary(d)))
			}
			acc.AddCounter(c)
			ref.addPairs(pairs)
			if c.counts != nil {
				t.Fatalf("%s: a bundle of at most 127 operands allocated the int32 counts", label)
			}
		}
		for i, cnt := range ref.counts {
			if want := 2*cnt - int64(ref.n); int64(acc.Sum(i)) != want {
				t.Fatalf("d=%d: folded sum %d = %d, want %d", d, i, acc.Sum(i), want)
			}
		}

		label := fmt.Sprintf("d=%d n=256", d)
		c.Reset()
		vs := randomVectors(d, 256, rng)
		addAll(c, vs)
		bundle.reset()
		bundle.addAll(vs)
		bundle.checkSign(t, label, tie, c.SignBinaryInto(tie, NewBinary(d)))
		if len(c.counts) != d {
			t.Fatalf("%s: int32 counts %d after the first flush, want %d", label, len(c.counts), d)
		}
		bundle.check(t, label, c)
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
					addAll(c, vs)
					ref.addAll(vs)
				case 1:
					pairs := randomPairs(d, rng.Intn(20), rng)
					addPairs(c, pairs)
					ref.addPairs(pairs)
				case 2:
					// Several full blocks in one call, so the weight-16
					// overflow fires inside the call.
					pairs := randomPairs(d, 16+rng.Intn(24), rng)
					addPairs(c, pairs)
					ref.addPairs(pairs)
				case 3:
					// Long enough that the byte lanes flush inside the call.
					vs := randomVectors(d, 100+rng.Intn(200), rng)
					addAll(c, vs)
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
	c.materializeCounts()
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
	mustPanic("pairs past cap", func() { addPairs(c, []xorPair{{A: a, B: b}}) })
	mustPanic("vectors past cap", func() { addAll(c, []*Binary{a}) })
	// Empty calls add nothing and stay legal at the cap.
	addPairs(c, nil)
	addAll(c, nil)
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
	first, second := []xorPair{{A: a, B: b}}, []xorPair{{A: b, B: a}}
	addPairs(c, first)
	dst := make([]int32, d)
	if got := c.CountsInto(dst); &got[0] != &dst[0] {
		t.Fatal("CountsInto did not return dst")
	}
	// Corrupt the returned slice, keep accumulating, and compare against a
	// pristine reference: the write-through must not reach the counter.
	for i := range dst {
		dst[i] = 999
	}
	addPairs(c, second)
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
			addPairs(fast, pairs)
			addPairs(slow, pairs)
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
