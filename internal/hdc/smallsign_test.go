package hdc

import (
	"fmt"
	"testing"
)

// TestSignSmallMatchesCounter pins the small-n kernel's contract: for
// every count in [1, MaxSmallSign] (covering odd/even tie handling and
// every block-padding shape), the one-shot bit-sliced majority equals the
// full Reset + AddXorPairs + SignBinaryInto pipeline bit for bit.
func TestSignSmallMatchesCounter(t *testing.T) {
	forEachKernelTier(t, testSignSmallMatchesCounter)
}

func testSignSmallMatchesCounter(t *testing.T) {
	rng := NewRNG(17)
	for _, d := range []int{1, 63, 64, 65, 130, 512} {
		c := NewBitCounter(d)
		ref := NewBitCounter(d)
		vecs := make([]*Binary, 10)
		for i := range vecs {
			vecs[i] = RandomBinary(d, rng)
		}
		type pr struct{ a, b int }
		prs := make([]pr, 8)
		for i := range prs {
			prs[i] = pr{rng.Intn(len(vecs)), rng.Intn(len(vecs))}
		}
		for n := 1; n <= MaxSmallSign; n++ {
			pairs := make([]XorPair, n)
			for i := range pairs {
				p := rng.Intn(len(prs))
				pairs[i] = XorPair{A: vecs[prs[p].a], B: vecs[prs[p].b], Invert: true}
			}
			tie := RandomBinary(d, rng)
			ref.Reset()
			ref.AddXorPairs(pairs)
			want := ref.SignBinary(tie)
			if got := c.SignXorPairsSmallInto(pairs, tie, NewBinary(d)); !got.Equal(want) {
				t.Fatalf("d=%d n=%d: SignXorPairsSmallInto differs from counter pipeline", d, n)
			}
		}
	}
}

// TestSignSmallIgnoresCounterState checks the one-shot property: the
// kernels neither read nor disturb weight already accumulated in the
// counter, and leave the carry-save planes zero for the next block call.
func TestSignSmallIgnoresCounterState(t *testing.T) {
	forEachKernelTier(t, testSignSmallIgnoresCounterState)
}

func testSignSmallIgnoresCounterState(t *testing.T) {
	rng := NewRNG(23)
	d := 200
	c := NewBitCounter(d)
	a, b := RandomBinary(d, rng), RandomBinary(d, rng)
	// Pre-load the counter with unrelated weight.
	c.AddAll(randomVectors(d, 40, rng))
	beforeCounts := c.CountsInto(make([]int32, d))
	beforeN := c.Count()

	pairs := []XorPair{{A: a, B: b, Invert: true}, {A: b, B: a, Invert: false}, {A: a, B: a, Invert: true}}
	tie := RandomBinary(d, rng)
	ref := NewBitCounter(d)
	ref.AddXorPairs(pairs)
	want := ref.SignBinary(tie)
	if got := c.SignXorPairsSmallInto(pairs, tie, NewBinary(d)); !got.Equal(want) {
		t.Fatal("sign differs with pre-loaded counter state")
	}
	if c.Count() != beforeN {
		t.Fatalf("count changed: %d vs %d", c.Count(), beforeN)
	}
	afterCounts := c.CountsInto(make([]int32, d))
	for i := range beforeCounts {
		if beforeCounts[i] != afterCounts[i] {
			t.Fatalf("count[%d] changed: %d vs %d", i, beforeCounts[i], afterCounts[i])
		}
	}
	// The planes must be back to zero: a follow-up blocked add behaves as
	// on a fresh counter.
	c.Reset()
	probe := make([]XorPair, 9)
	for i := range probe {
		probe[i] = XorPair{A: RandomBinary(d, rng), B: RandomBinary(d, rng), Invert: i%2 == 0}
	}
	c.AddXorPairs(probe)
	ref2 := NewBitCounter(d)
	ref2.AddXorPairs(probe)
	g := c.CountsInto(make([]int32, d))
	r := ref2.CountsInto(make([]int32, d))
	for i := range g {
		if g[i] != r[i] {
			t.Fatalf("residual plane state leaked into later adds at component %d", i)
		}
	}
}

// TestSignSmallPanics pins the range and dimension contracts.
func TestSignSmallPanics(t *testing.T) {
	d := 64
	c := NewBitCounter(d)
	rng := NewRNG(4)
	a, b := RandomBinary(d, rng), RandomBinary(d, rng)
	tie, dst := RandomBinary(d, rng), NewBinary(d)
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	expectPanic("zero pairs", func() { c.SignXorPairsSmallInto(nil, tie, dst) })
	expectPanic("too many pairs", func() {
		c.SignXorPairsSmallInto(make([]XorPair, MaxSmallSign+1), tie, dst)
	})
	// Operands narrower than the counter must panic; wider operands are
	// the prefix-slicing contract (see BitCounter.SetDim) and must not.
	expectPanic("pair dim below counter", func() {
		c.SignXorPairsSmallInto([]XorPair{{A: RandomBinary(63, rng), B: RandomBinary(63, rng)}}, tie, dst)
	})
	expectPanic("dst dim mismatch", func() {
		c.SignXorPairsSmallInto([]XorPair{{A: a, B: b}}, tie, NewBinary(65))
	})
	c.SignXorPairsSmallInto([]XorPair{{A: RandomBinary(65, rng), B: RandomBinary(65, rng)}}, tie, dst)
}

// BenchmarkSignXorPairsSmall times the one-shot small sign at the paper's
// d = 10,000 on the active kernel tier (GRAPHHD_KERNEL picks it) for a
// bundle of one block, about the mean NCI1 edge count, and the maximum.
func BenchmarkSignXorPairsSmall(b *testing.B) {
	const d = 10000
	rng := NewRNG(5)
	basis := randomVectors(d, 40, rng)
	tie := RandomBinary(d, rng)
	for _, m := range []int{8, 29, 63} {
		pairs := make([]XorPair, m)
		for i := range pairs {
			pairs[i] = XorPair{A: basis[rng.Intn(len(basis))], B: basis[rng.Intn(len(basis))], Invert: true}
		}
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			c := NewBitCounter(d)
			dst := NewBinary(d)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.SignXorPairsSmallInto(pairs, tie, dst)
			}
		})
	}
}
