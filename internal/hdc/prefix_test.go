package hdc

import (
	"fmt"
	"testing"
)

// Prefix-slicing equivalence matrix: every accumulation and sign entry
// point, fed FULL-width operands through a counter narrowed with SetDim,
// must produce bit-for-bit the result of a fresh counter of the prefix
// dimension fed PrefixCopy'd operands. Majority bundling and XNOR
// binding are componentwise, so the two computations are mathematically
// identical; these tests pin that the tail-masking plumbing preserves it
// under every kernel tier, including prefix widths that are not
// multiples of 64.

// prefixWidths covers sub-word (64), odd-tail (100, 1000), lane-aligned
// (320, 1024) and full-width slices of the 2113-dimensional fixtures.
var prefixWidths = []int{64, 100, 320, 1000, 1024, 2113}

const prefixFullD = 2113

func prefixPairs(rng *RNG, n int) []XorPair {
	pairs := make([]XorPair, n)
	for i := range pairs {
		pairs[i] = XorPair{
			A:      RandomBinary(prefixFullD, rng),
			B:      RandomBinary(prefixFullD, rng),
			Invert: i%2 == 0,
		}
	}
	return pairs
}

func prefixCopyPairs(pairs []XorPair, d int) []XorPair {
	out := make([]XorPair, len(pairs))
	for i, p := range pairs {
		out[i] = XorPair{A: p.A.PrefixCopy(d), B: p.B.PrefixCopy(d), Invert: p.Invert}
	}
	return out
}

func TestPrefixCopyCanonical(t *testing.T) {
	rng := NewRNG(11)
	b := RandomBinary(prefixFullD, rng)
	for _, d := range prefixWidths {
		p := b.PrefixCopy(d)
		if p.Dim() != d {
			t.Fatalf("PrefixCopy(%d).Dim() = %d", d, p.Dim())
		}
		for i := 0; i < d; i++ {
			if p.Bit(i) != b.Bit(i) {
				t.Fatalf("d=%d: bit %d = %d, want %d", d, i, p.Bit(i), b.Bit(i))
			}
		}
		if r := d & 63; r != 0 {
			if tail := p.words[len(p.words)-1] &^ ((1 << uint(r)) - 1); tail != 0 {
				t.Fatalf("d=%d: tail bits set: %#x", d, tail)
			}
		}
	}
	for _, bad := range []int{0, -1, prefixFullD + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("PrefixCopy(%d): expected panic", bad)
				}
			}()
			b.PrefixCopy(bad)
		}()
	}
}

// TestPrefixCountsEquivalence: the scalar, weighted, and blocked
// accumulation paths through a SetDim-narrowed counter match a fresh
// prefix-dimension counter over PrefixCopy'd operands, count for count.
func TestPrefixCountsEquivalence(t *testing.T) {
	forEachKernelTier(t, func(t *testing.T) {
		rng := NewRNG(21)
		pairs := prefixPairs(rng, 21)
		singles := make([]*Binary, 5)
		for i := range singles {
			singles[i] = RandomBinary(prefixFullD, rng)
		}
		wide := NewBitCounter(prefixFullD)
		for _, d := range prefixWidths {
			wide.SetDim(d)
			narrow := NewBitCounter(d)
			np := prefixCopyPairs(pairs, d)
			// Scalar adds.
			for i, s := range singles {
				wide.Add(s)
				narrow.Add(s.PrefixCopy(d))
				wide.AddXor(pairs[i].A, pairs[i].B, pairs[i].Invert)
				narrow.AddXor(np[i].A, np[i].B, np[i].Invert)
			}
			// Weighted adds, below and above the 64-weight int32 cutover.
			for i, w := range []int{3, 17, 70} {
				wide.AddXorWeighted(pairs[i].A, pairs[i].B, pairs[i].Invert, w)
				narrow.AddXorWeighted(np[i].A, np[i].B, np[i].Invert, w)
			}
			// Blocked CSA path.
			wide.AddXorPairs(pairs)
			narrow.AddXorPairs(np)
			if wide.Count() != narrow.Count() {
				t.Fatalf("d=%d: count %d vs %d", d, wide.Count(), narrow.Count())
			}
			got := wide.CountsInto(make([]int32, d))
			want := narrow.CountsInto(make([]int32, d))
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("d=%d: count[%d] = %d, want %d", d, i, got[i], want[i])
				}
			}
		}
	})
}

// TestPrefixSignEquivalence: SignBinaryInto off a narrowed counter (SWAR
// and flushed paths) and the small-sign kernels, with full-width
// operands and a full-width tie, match the fresh prefix-width reference
// bit for bit.
func TestPrefixSignEquivalence(t *testing.T) {
	forEachKernelTier(t, func(t *testing.T) {
		rng := NewRNG(31)
		tie := RandomBinary(prefixFullD, rng)
		wide := NewBitCounter(prefixFullD)
		// Even and odd counts (ties vs no ties), below and above the SWAR
		// byte-lane limit of 127, and within small-sign range.
		for _, n := range []int{2, 7, 48, 63, 200} {
			pairs := prefixPairs(rng, n)
			for _, d := range prefixWidths {
				name := fmt.Sprintf("n=%d/d=%d", n, d)
				wide.SetDim(d)
				narrow := NewBitCounter(d)
				np := prefixCopyPairs(pairs, d)
				ptie := tie.PrefixCopy(d)

				wide.Reset()
				wide.AddXorPairs(pairs)
				got := wide.SignBinaryInto(tie, NewBinary(d))
				narrow.Reset()
				narrow.AddXorPairs(np)
				want := narrow.SignBinaryInto(ptie, NewBinary(d))
				if !got.Equal(want) {
					t.Fatalf("%s: SignBinaryInto diverged", name)
				}

				if n <= MaxSmallSign {
					got := wide.SignXorPairsSmallInto(pairs, tie, NewBinary(d))
					want := narrow.SignXorPairsSmallInto(np, ptie, NewBinary(d))
					if !got.Equal(want) {
						t.Fatalf("%s: SignXorPairsSmallInto diverged", name)
					}
				}
			}
		}
	})
}

// TestSetDimInterleave: one counter hopping between widths behaves, at
// every hop, exactly like a fresh counter of that width — narrowing then
// widening never resurrects stale weight.
func TestSetDimInterleave(t *testing.T) {
	rng := NewRNG(51)
	c := NewBitCounter(prefixFullD)
	if c.Capacity() != prefixFullD {
		t.Fatalf("Capacity() = %d", c.Capacity())
	}
	seq := []int{1024, prefixFullD, 100, 1000, 64, prefixFullD, 320}
	for hop, d := range seq {
		c.SetDim(d)
		if c.Dim() != d {
			t.Fatalf("hop %d: Dim() = %d, want %d", hop, c.Dim(), d)
		}
		if c.Count() != 0 {
			t.Fatalf("hop %d: SetDim kept weight %d", hop, c.Count())
		}
		fresh := NewBitCounter(d)
		pairs := prefixPairs(rng, 5+hop*7)
		c.AddXorPairs(pairs)
		fresh.AddXorPairs(prefixCopyPairs(pairs, d))
		got := c.CountsInto(make([]int32, d))
		want := fresh.CountsInto(make([]int32, d))
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("hop %d (d=%d): count[%d] = %d, want %d", hop, d, i, got[i], want[i])
			}
		}
		// Leave weight behind on purpose: the next hop must discard it.
	}
}

// TestPackedMemoryPrefix: Prefix() yields canonical class slices whose
// Classify/ClassifyTop2 answers on prefix queries equal a from-scratch
// memory over the same prefix copies, and ClassifyTop2 agrees with
// Classify on the winner.
func TestPackedMemoryPrefix(t *testing.T) {
	forEachKernelTier(t, func(t *testing.T) {
		rng := NewRNG(61)
		classes := make([]*Binary, 4)
		for i := range classes {
			classes[i] = RandomBinary(prefixFullD, rng)
		}
		pm, err := NewPackedMemory(classes)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range prefixWidths {
			ppm, err := pm.Prefix(d)
			if err != nil {
				t.Fatal(err)
			}
			if ppm.Dim() != d || ppm.NumClasses() != len(classes) {
				t.Fatalf("d=%d: prefix shape %d/%d", d, ppm.Dim(), ppm.NumClasses())
			}
			ref := make([]*Binary, len(classes))
			for i := range classes {
				ref[i] = classes[i].PrefixCopy(d)
			}
			refPM, err := NewPackedMemory(ref)
			if err != nil {
				t.Fatal(err)
			}
			for q := 0; q < 20; q++ {
				v := RandomBinary(d, rng)
				if got, want := ppm.Classify(v), refPM.Classify(v); got != want {
					t.Fatalf("d=%d: Classify %d vs %d", d, got, want)
				}
				best, second, bestH, secondH := ppm.ClassifyTop2(v)
				if best != ppm.Classify(v) {
					t.Fatalf("d=%d: ClassifyTop2 best %d vs Classify %d", d, best, ppm.Classify(v))
				}
				if second == best || second < 0 || second >= len(classes) {
					t.Fatalf("d=%d: bad runner-up %d (best %d)", d, second, best)
				}
				if bestH > secondH {
					t.Fatalf("d=%d: bestH %d > secondH %d", d, bestH, secondH)
				}
				hs := ppm.Hammings(v)
				if hs[best] != bestH || hs[second] != secondH {
					t.Fatalf("d=%d: top2 distances %d/%d vs Hammings %v", d, bestH, secondH, hs)
				}
			}
		}
		if _, err := pm.Prefix(0); err == nil {
			t.Fatal("Prefix(0): expected error")
		}
		if _, err := pm.Prefix(prefixFullD + 1); err == nil {
			t.Fatal("Prefix(d+1): expected error")
		}
		// Single class: infinite margin, runner-up -1.
		one, err := NewPackedMemory(classes[:1])
		if err != nil {
			t.Fatal(err)
		}
		best, second, bestH, secondH := one.ClassifyTop2(RandomBinary(prefixFullD, rng))
		if best != 0 || second != -1 || secondH != prefixFullD+1 || bestH > prefixFullD {
			t.Fatalf("single class top2 = (%d,%d,%d,%d)", best, second, bestH, secondH)
		}
	})
}
