package hdc

import (
	"fmt"
	"testing"
)

// TestSignSmallMatchesCounter pins the small-n kernel's contract: for
// every count in [1, MaxSmallSign] (covering odd/even tie handling and
// every block-padding shape), the one-shot bit-sliced majority equals the
// full Reset + AddXorKeys + SignXnorInto pipeline bit for bit.
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
			pairs := make([]xorPair, n)
			for i := range pairs {
				p := rng.Intn(len(prs))
				pairs[i] = xorPair{A: vecs[prs[p].a], B: vecs[prs[p].b]}
			}
			tie := RandomBinary(d, rng)
			ref.Reset()
			addPairs(ref, pairs)
			want := ref.SignXnorInto(tie, NewBinary(d))
			if got := signSmall(c, pairs, tie, NewBinary(d)); !got.Equal(want) {
				t.Fatalf("d=%d n=%d: SignXnorKeysSmallInto differs from counter pipeline", d, n)
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
	addAll(c, randomVectors(d, 40, rng))
	beforeCounts := c.CountsInto(make([]int32, d))
	beforeN := c.Count()

	pairs := []xorPair{{A: a, B: b}, {A: b, B: a}, {A: a, B: a}}
	tie := RandomBinary(d, rng)
	ref := NewBitCounter(d)
	addPairs(ref, pairs)
	want := ref.SignXnorInto(tie, NewBinary(d))
	if got := signSmall(c, pairs, tie, NewBinary(d)); !got.Equal(want) {
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
	probe := make([]xorPair, 9)
	for i := range probe {
		probe[i] = xorPair{A: RandomBinary(d, rng), B: RandomBinary(d, rng)}
	}
	addPairs(c, probe)
	ref2 := NewBitCounter(d)
	addPairs(ref2, probe)
	g := c.CountsInto(make([]int32, d))
	r := ref2.CountsInto(make([]int32, d))
	for i := range g {
		if g[i] != r[i] {
			t.Fatalf("residual plane state leaked into later adds at component %d", i)
		}
	}
}

// TestSignSmallPanics pins the range, slab and dimension contracts.
func TestSignSmallPanics(t *testing.T) {
	d := 64
	c := NewBitCounter(d)
	rng := NewRNG(4)
	a, b := RandomBinary(d, rng), RandomBinary(d, rng)
	tie, dst := RandomBinary(d, rng), NewBinary(d)
	slab, keys := pairKeys([]xorPair{{A: a, B: b}})
	st := SlabStride(d)
	last := len(slab) - st
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	expectPanic("zero pairs", func() { signSmall(c, nil, tie, dst) })
	expectPanic("too many pairs", func() {
		signSmall(c, make([]xorPair, MaxSmallSign+1), tie, dst)
	})
	// A key must name rows inside the slab, and the slab must be whole
	// rows of the counter's stride.
	c.SignXnorKeysSmallInto(slab, []uint64{Key(last, last)}, tie, dst) // the last row is fine
	expectPanic("key row past the slab", func() {
		c.SignXnorKeysSmallInto(slab, []uint64{Key(0, last+1)}, tie, dst)
	})
	expectPanic("key row past the slab, high half", func() {
		c.SignXnorKeysSmallInto(slab, []uint64{Key(len(slab), 0)}, tie, dst)
	})
	expectPanic("slab not whole rows", func() {
		c.SignXnorKeysSmallInto(slab[:len(slab)-1], keys, tie, dst)
	})
	expectPanic("slab of a wider stride", func() {
		NewBitCounter(10*d).SignXnorKeysSmallInto(slab, []uint64{0}, RandomBinary(10*d, rng), NewBinary(10*d))
	})
	expectPanic("tie dim above counter", func() {
		c.SignXnorKeysSmallInto(slab, keys, RandomBinary(65, rng), dst)
	})
	expectPanic("dst dim mismatch", func() {
		c.SignXnorKeysSmallInto(slab, keys, tie, NewBinary(65))
	})
}

// BenchmarkSignXnorKeysSmall times the one-shot small sign at the
// paper's d = 10,000 on the active kernel tier (GRAPHHD_KERNEL picks it)
// for a bundle of one block, about the mean NCI1 edge count, and the
// maximum, with keys over a 40-row slab as the encoder's basis is.
func BenchmarkSignXnorKeysSmall(b *testing.B) {
	const d = 10000
	rng := NewRNG(5)
	slab, rows := randomSlab(d, 40, rng)
	st := SlabStride(d)
	tie := RandomBinary(d, rng)
	for _, m := range []int{8, 29, 63} {
		keys := make([]uint64, m)
		for i := range keys {
			keys[i] = Key(rng.Intn(len(rows))*st, rng.Intn(len(rows))*st)
		}
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			c := NewBitCounter(d)
			dst := NewBinary(d)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.SignXnorKeysSmallInto(slab, keys, tie, dst)
			}
		})
	}
}
