package hdc

import (
	"testing"
)

// FuzzBitCounter is the differential fuzzer behind the BitCounter
// correctness audit: a byte stream drives random interleavings of the
// counter's entry points — AddXorPairs, AddAll, Reset, a read of the
// counts, the one-shot SignXorPairsSmallInto and SignBinaryInto — and
// after each observation the counter must agree with a naive per-bit
// reference. The whole op stream replays once per supported kernel tier,
// so on vector-capable machines the fuzzer doubles as the per-tier
// differential oracle (the naive reference is tier-independent). Run
// with `go test -fuzz FuzzBitCounter ./internal/hdc`; the seed corpus
// keeps a representative slice running under plain `go test`.
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
	// size draws an operand count: mostly up to three blocks, and one
	// time in four enough blocks that the byte lanes flush inside the
	// call.
	size := func() int {
		if rng.Intn(4) == 0 {
			return 128 + rng.Intn(256)
		}
		return rng.Intn(24)
	}
	for _, op := range ops {
		switch op % 6 {
		case 0:
			vs := randomVectors(d, size(), rng)
			c.AddAll(vs)
			ref.addAll(vs)
		case 1:
			pairs := randomPairs(d, size(), rng)
			c.AddXorPairs(pairs)
			ref.addPairs(pairs)
		case 2:
			c.Reset()
			ref.reset()
		case 3:
			ref.check(t, "counts", c)
		case 4:
			// The one-shot small-sign kernel: its majority must match a
			// per-bit count of its own pairs, and it must leave the
			// accumulated state (checked by later ops) untouched.
			pairs := randomPairs(d, 1+rng.Intn(MaxSmallSign), rng)
			tie := RandomBinary(d, rng)
			own := newNaiveCounter(d)
			own.addPairs(pairs)
			own.checkSign(t, "SignXorPairsSmallInto", tie, c.SignXorPairsSmallInto(pairs, tie, NewBinary(d)))
		case 5:
			tie := RandomBinary(d, rng)
			ref.checkSign(t, "SignBinaryInto", tie, c.SignBinaryInto(tie, NewBinary(d)))
		}
	}
	ref.check(t, "final", c)
}
