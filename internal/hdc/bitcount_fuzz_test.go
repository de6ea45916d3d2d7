package hdc

import (
	"testing"
)

// FuzzBitCounter is the differential fuzzer behind the BitCounter
// correctness audit: a byte stream drives random interleavings of the
// counter's entry points — AddXorKeys of row pairs and of whole rows,
// Reset, a read of the counts, the one-shot SignXnorKeysSmallInto,
// SignBinaryInto and SignXnorInto — and after each observation the
// counter must agree with a naive per-bit reference. The keys index one
// slab of random rows and its zero row, so they name the slab's last
// row and, now and then, are the zero key. The whole op stream replays
// once per supported kernel tier, so on vector-capable machines the
// fuzzer doubles as the per-tier differential oracle (the naive
// reference is tier-independent). Run with
// `go test -fuzz FuzzBitCounter ./internal/hdc`; the seed corpus keeps a
// representative slice running under plain `go test`.
func FuzzBitCounter(f *testing.F) {
	f.Add(uint64(1), []byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add(uint64(2), []byte{2, 2, 2, 6, 4, 7, 5, 2, 6})
	f.Add(uint64(3), []byte{4, 4, 4, 6, 1, 7})
	f.Add(uint64(42), []byte{3, 2, 1, 0, 7, 6, 5, 4, 3, 2, 1, 0, 7})
	prev := ActiveKernel()
	f.Cleanup(func() { SetKernel(prev) })
	f.Fuzz(func(t *testing.T, seed uint64, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		for _, tier := range SupportedKernels() {
			if err := SetKernel(tier); err != nil {
				t.Fatalf("SetKernel(%s): %v", tier, err)
			}
			fuzzBitCounterOps(t, seed, ops)
		}
	})
}

func fuzzBitCounterOps(t *testing.T, seed uint64, ops []byte) {
	rng := NewRNG(seed)
	d := 1 + rng.Intn(200)
	c := NewBitCounter(d)
	ref := newNaiveCounter(d)
	slab, rows := randomSlab(d, 12, rng)
	st := SlabStride(d)
	row := func(off uint64) *Binary { return BinaryRows(d, slab[off:], 1)[0] }
	// size draws an operand count: mostly up to three blocks, and one
	// time in four enough blocks that the byte lanes flush inside the
	// call.
	size := func() int {
		if rng.Intn(4) == 0 {
			return 128 + rng.Intn(256)
		}
		return rng.Intn(24)
	}
	// keys draws n keys over the slab's rows, its zero row included.
	keys := func(n int) []uint64 {
		ks := make([]uint64, n)
		for i := range ks {
			ks[i] = Key(rng.Intn(len(rows)+1)*st, rng.Intn(len(rows)+1)*st)
		}
		return ks
	}
	add := func(r *naiveCounter, ks []uint64) {
		for _, k := range ks {
			r.addPairs([]xorPair{{A: row(k >> 32), B: row(k & 0xFFFFFFFF)}})
		}
	}
	for _, op := range ops {
		switch op % 7 {
		case 0:
			// Whole rows, each keyed against the zero row.
			ks := make([]uint64, size())
			for i := range ks {
				ks[i] = Key(rng.Intn(len(rows))*st, len(rows)*st)
			}
			c.AddXorKeys(slab, ks)
			add(ref, ks)
		case 1:
			ks := keys(size())
			c.AddXorKeys(slab, ks)
			add(ref, ks)
		case 2:
			c.Reset()
			ref.reset()
		case 3:
			ref.check(t, "counts", c)
		case 4:
			// The one-shot small-sign kernel: its majority must match a
			// per-bit count of its own keys, and it must leave the
			// accumulated state (checked by later ops) untouched.
			ks := keys(1 + rng.Intn(MaxSmallSign))
			tie := RandomBinary(d, rng)
			own := newNaiveCounter(d)
			add(own, ks)
			own.checkXnorSign(t, "SignXnorKeysSmallInto", tie, c.SignXnorKeysSmallInto(slab, ks, tie, NewBinary(d)))
		case 5:
			tie := RandomBinary(d, rng)
			ref.checkSign(t, "SignBinaryInto", tie, c.SignBinaryInto(tie, NewBinary(d)))
		case 6:
			tie := RandomBinary(d, rng)
			ref.checkXnorSign(t, "SignXnorInto", tie, c.SignXnorInto(tie, NewBinary(d)))
		}
	}
	ref.check(t, "final", c)
}
