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

// assertSameCounts compares two counters component by component via
// CountsInto, the non-aliasing accessor.
func assertSameCounts(t *testing.T, label string, got, want *BitCounter) {
	t.Helper()
	if got.Count() != want.Count() {
		t.Fatalf("%s: count %d, want %d", label, got.Count(), want.Count())
	}
	d := want.Dim()
	gc := got.CountsInto(make([]int32, d))
	wc := want.CountsInto(make([]int32, d))
	for i := range wc {
		if gc[i] != wc[i] {
			t.Fatalf("%s: component %d: count %d, want %d", label, i, gc[i], wc[i])
		}
	}
}

// TestAddXorPairsMatchesScalar pins the tentpole guarantee: the blocked
// carry-save path is bit-for-bit equivalent to per-edge AddXor, across
// block-remainder boundaries, mixed invert flags, tail dimensions — and,
// via forEachKernelTier, every vector kernel tier this CPU supports.
func TestAddXorPairsMatchesScalar(t *testing.T) {
	forEachKernelTier(t, testAddXorPairsMatchesScalar)
}

func testAddXorPairsMatchesScalar(t *testing.T) {
	for _, d := range []int{1, 63, 64, 65, 100, 130, 517, 1024} {
		for n := 0; n <= 40; n++ {
			rng := NewRNG(uint64(d)<<16 | uint64(n))
			pairs := randomPairs(d, n, rng)
			blocked := NewBitCounter(d)
			blocked.AddXorPairs(pairs)
			scalar := NewBitCounter(d)
			for _, p := range pairs {
				scalar.AddXor(p.A, p.B, p.Invert)
			}
			assertSameCounts(t, "AddXorPairs", blocked, scalar)
			tie := RandomBinary(d, rng)
			if !blocked.SignBinary(tie).Equal(scalar.SignBinary(tie)) {
				t.Fatalf("d=%d n=%d: blocked sign differs from scalar sign", d, n)
			}
		}
	}
}

// TestAddAllMatchesAdd pins the bulk carry-save add against n calls of
// Add — across block remainders, tail dimensions, operands wider than a
// narrowed counter, weight already pending in the nibble lanes, and every
// supported kernel tier.
func TestAddAllMatchesAdd(t *testing.T) {
	forEachKernelTier(t, testAddAllMatchesAdd)
}

func testAddAllMatchesAdd(t *testing.T) {
	for _, d := range []int{1, 63, 64, 65, 100, 1000, 10007} {
		for _, n := range []int{0, 1, 7, 8, 9, 17, 32, 33, 130, 300} {
			for _, pending := range []int{0, 3} {
				rng := NewRNG(uint64(d)<<20 | uint64(n)<<4 | uint64(pending))
				vs := make([]*Binary, n)
				for i := range vs {
					vs[i] = RandomBinary(d, rng)
				}
				bulk, scalar := NewBitCounter(d), NewBitCounter(d)
				for i := 0; i < pending; i++ {
					v := RandomBinary(d, rng)
					bulk.Add(v)
					scalar.Add(v)
				}
				bulk.AddAll(vs)
				for _, v := range vs {
					scalar.Add(v)
				}
				assertSameCounts(t, fmt.Sprintf("d=%d n=%d pending=%d", d, n, pending), bulk, scalar)
			}
		}
		if d > 1 {
			// Full-width operands into a counter narrowed to d-1: only the
			// leading d-1 components count.
			rng := NewRNG(uint64(d))
			vs := make([]*Binary, 20)
			for i := range vs {
				vs[i] = RandomBinary(d, rng)
			}
			bulk, scalar := NewBitCounter(d), NewBitCounter(d)
			bulk.SetDim(d - 1)
			scalar.SetDim(d - 1)
			bulk.AddAll(vs)
			for _, v := range vs {
				scalar.Add(v)
			}
			assertSameCounts(t, fmt.Sprintf("d=%d narrowed", d), bulk, scalar)
		}
	}
}

// TestAddXorPairsInterleaved mixes blocked, scalar and weighted adds on
// one counter — the shape the encoder produces — against a pure scalar
// reference.
func TestAddXorPairsInterleaved(t *testing.T) {
	const d = 200
	rng := NewRNG(99)
	got := NewBitCounter(d)
	want := NewBitCounter(d)
	for round := 0; round < 6; round++ {
		pairs := randomPairs(d, 3+round*5, rng)
		got.AddXorPairs(pairs)
		for _, p := range pairs {
			want.AddXor(p.A, p.B, p.Invert)
		}
		a, b := RandomBinary(d, rng), RandomBinary(d, rng)
		got.AddXor(a, b, true)
		want.AddXor(a, b, true)
		wgt := 1 + rng.Intn(20)
		got.AddXorWeighted(a, b, false, wgt)
		for k := 0; k < wgt; k++ {
			want.AddXor(a, b, false)
		}
	}
	assertSameCounts(t, "interleaved", got, want)
}

// TestAddXorWeightedMatchesRepeated covers both weighted implementations:
// the chunked nibble path (weight <= 64) and the direct int32 path.
func TestAddXorWeightedMatchesRepeated(t *testing.T) {
	const d = 130
	rng := NewRNG(7)
	for _, weight := range []int{0, 1, 2, 14, 15, 16, 30, 63, 64, 65, 100, 300} {
		for _, invert := range []bool{false, true} {
			a, b := RandomBinary(d, rng), RandomBinary(d, rng)
			got := NewBitCounter(d)
			got.AddXorWeighted(a, b, invert, weight)
			want := NewBitCounter(d)
			for k := 0; k < weight; k++ {
				want.AddXor(a, b, invert)
			}
			assertSameCounts(t, "AddXorWeighted", got, want)
		}
	}
}

// TestAddXorWeightedAfterwards ensures the direct-to-counts path composes
// with later lane adds (the two tiers are independent addends).
func TestAddXorWeightedAfterwards(t *testing.T) {
	const d = 96
	rng := NewRNG(8)
	a, b := RandomBinary(d, rng), RandomBinary(d, rng)
	x, y := RandomBinary(d, rng), RandomBinary(d, rng)
	got := NewBitCounter(d)
	got.AddXorWeighted(a, b, true, 100) // direct path
	got.AddXor(x, y, false)             // lanes on top
	got.AddXorWeighted(x, y, true, 3)   // chunked path on top
	want := NewBitCounter(d)
	for k := 0; k < 100; k++ {
		want.AddXor(a, b, true)
	}
	want.AddXor(x, y, false)
	for k := 0; k < 3; k++ {
		want.AddXor(x, y, true)
	}
	assertSameCounts(t, "weighted+lanes", got, want)
}

// TestBitCounterDifferential drives random interleavings of every
// mutating and observing operation against a naive per-bit reference
// counter — the audit the three-tier fold/flush logic never had — under
// every supported kernel tier.
func TestBitCounterDifferential(t *testing.T) {
	forEachKernelTier(t, testBitCounterDifferential)
}

func testBitCounterDifferential(t *testing.T) {
	for _, d := range []int{5, 64, 100, 130, 192} {
		for trial := 0; trial < 20; trial++ {
			rng := NewRNG(uint64(d)*1009 + uint64(trial))
			c := NewBitCounter(d)
			naive := make([]int64, d)
			naiveN := 0
			addNaive := func(bits func(i int) int, weight int) {
				for i := 0; i < d; i++ {
					naive[i] += int64(bits(i)) * int64(weight)
				}
				naiveN += weight
			}
			xorBit := func(a, b *Binary, invert bool) func(int) int {
				return func(i int) int {
					v := a.Bit(i) ^ b.Bit(i)
					if invert {
						v = 1 - v
					}
					return v
				}
			}
			for step := 0; step < 60; step++ {
				switch rng.Intn(8) {
				case 0:
					v := RandomBinary(d, rng)
					c.Add(v)
					addNaive(v.Bit, 1)
				case 1:
					a, b := RandomBinary(d, rng), RandomBinary(d, rng)
					inv := rng.Intn(2) == 0
					c.AddXor(a, b, inv)
					addNaive(xorBit(a, b, inv), 1)
				case 2:
					pairs := randomPairs(d, rng.Intn(20), rng)
					c.AddXorPairs(pairs)
					for _, p := range pairs {
						addNaive(xorBit(p.A, p.B, p.Invert), 1)
					}
				case 3:
					// Several full blocks in one call, so the weight-16
					// overflow fires inside the call.
					pairs := randomPairs(d, 16+rng.Intn(24), rng)
					c.AddXorPairs(pairs)
					for _, p := range pairs {
						addNaive(xorBit(p.A, p.B, p.Invert), 1)
					}
				case 4:
					a, b := RandomBinary(d, rng), RandomBinary(d, rng)
					inv := rng.Intn(2) == 0
					w := rng.Intn(90)
					c.AddXorWeighted(a, b, inv, w)
					addNaive(xorBit(a, b, inv), w)
				case 5:
					c.Reset()
					for i := range naive {
						naive[i] = 0
					}
					naiveN = 0
				case 6:
					// Observe mid-stream: flush-then-continue must not lose
					// or double-count weight.
					i := rng.Intn(d)
					if got := c.CountAt(i); int64(got) != naive[i] {
						t.Fatalf("d=%d trial=%d step=%d: CountAt(%d)=%d, want %d", d, trial, step, i, got, naive[i])
					}
				case 7:
					tie := RandomBinary(d, rng)
					sign := c.SignBinary(tie)
					tieB := tie.UnpackBipolar()
					signB := c.SignBipolar(tieB)
					for i := 0; i < d; i++ {
						twice := 2 * naive[i]
						var wantBit int
						switch {
						case twice > int64(naiveN):
							wantBit = 1
						case twice < int64(naiveN):
							wantBit = 0
						default:
							wantBit = tie.Bit(i)
						}
						if sign.Bit(i) != wantBit {
							t.Fatalf("d=%d trial=%d step=%d: SignBinary bit %d = %d, want %d (cnt=%d n=%d)",
								d, trial, step, i, sign.Bit(i), wantBit, naive[i], naiveN)
						}
						if got := int(signB.At(i)); got != 2*wantBit-1 {
							t.Fatalf("d=%d trial=%d step=%d: SignBipolar comp %d = %d, want %d",
								d, trial, step, i, got, 2*wantBit-1)
						}
					}
				}
			}
			if c.Count() != naiveN {
				t.Fatalf("d=%d trial=%d: count %d, want %d", d, trial, c.Count(), naiveN)
			}
			final := c.CountsInto(make([]int32, d))
			for i := range naive {
				if int64(final[i]) != naive[i] {
					t.Fatalf("d=%d trial=%d: final component %d = %d, want %d", d, trial, i, final[i], naive[i])
				}
			}
		}
	}
}

// TestSignOverflowBoundary pins the 2*cnt overflow fix: with counts at
// 2³⁰+1 the old int32 comparison wrapped negative and reported the
// minority sign.
func TestSignOverflowBoundary(t *testing.T) {
	const d = 64
	a := NewBinary(d)
	a.Flip(0) // bit 0 set, all others clear
	zero := NewBinary(d)
	c := NewBitCounter(d)
	// counts[0] = 2^30+1 via the direct weighted path; n = 2^30+1.
	c.AddXorWeighted(a, zero, false, 1<<30+1)
	// One all-zero vector: n = 2^30+2, counts[0] stays 2^30+1 — a strict
	// majority whose doubled count exceeds MaxInt32.
	c.AddXorWeighted(zero, zero, false, 1)
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
// panics instead of silently overflowing its int32 counts.
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
	c.AddXorWeighted(a, b, false, MaxAdds)
	mustPanic("Add past cap", func() { c.Add(a) })
	mustPanic("AddXor past cap", func() { c.AddXor(a, b, false) })
	mustPanic("AddXorPairs past cap", func() { c.AddXorPairs([]XorPair{{A: a, B: b}}) })
	mustPanic("AddXorWeighted past cap", func() { c.AddXorWeighted(a, b, false, 1) })
	mustPanic("negative weight", func() { NewBitCounter(d).AddXorWeighted(a, b, false, -1) })
	// At the cap exactly, observation still works.
	if got := c.Count(); got != MaxAdds {
		t.Fatalf("count %d, want %d", got, MaxAdds)
	}
}

// TestCountsInto verifies the copying accessor: the returned slice is the
// caller's, and corrupting it cannot disturb later accumulation.
func TestCountsInto(t *testing.T) {
	const d = 100
	rng := NewRNG(12)
	c := NewBitCounter(d)
	a, b := RandomBinary(d, rng), RandomBinary(d, rng)
	c.AddXor(a, b, true)
	dst := make([]int32, d)
	if got := c.CountsInto(dst); &got[0] != &dst[0] {
		t.Fatal("CountsInto did not return dst")
	}
	// Corrupt the returned slice, keep accumulating, and compare against a
	// pristine reference: the write-through must not reach the counter.
	for i := range dst {
		dst[i] = 999
	}
	c.AddXor(b, a, false)
	want := NewBitCounter(d)
	want.AddXor(a, b, true)
	want.AddXor(b, a, false)
	assertSameCounts(t, "post-corruption", c, want)
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

// BenchmarkBitCounterAddXorScalar is the per-edge baseline for the same
// workload as BenchmarkBitCounterAddXorPairs.
func BenchmarkBitCounterAddXorScalar(b *testing.B) {
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
		for _, p := range pairs {
			c.AddXor(p.A, p.B, p.Invert)
		}
	}
}
