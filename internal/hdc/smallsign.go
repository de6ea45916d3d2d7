package hdc

import "fmt"

// Small-n majority sign. Most graphs in both benchmark workloads bundle a
// few dozen edge vectors, far below the capacity the byte/int32 counter
// tiers exist to provide. For n ≤ MaxSmallSign every count fits in six
// bit-sliced planes (weights 1/2/4/8/16/32), so the sign is one sweep
// over the words: for each word (or vector group of words) the six
// planes live in registers while every operand of the graph runs through
// the Harley–Seal cascade, eight at a time, and the majority comes
// straight off them by a bit-sliced ripple compare before dst is stored.
// No plane is ever loaded or stored, no lane is drained, and nothing is
// left for Reset to clear. The sign ignores any weight already
// accumulated in the counter and leaves it untouched, so interleaving it
// with ordinary accumulation is safe.
//
// The sign it produces is bit-for-bit the sign of the equivalent
// Reset + AddXorPairs + SignBinaryInto sequence: the planes hold exact
// counts and the compare implements exactly the same majority-with-tie
// rule. On a vector tier the dispatched kernel sweeps the words vecWords
// gives it — all of them on AVX-512, the lane-aligned prefix on AVX2 —
// from the operand table in the counter; signSmallRange, the portable
// loop and the semantic source of truth, finishes whatever it leaves.

// MaxSmallSign is the largest vector count the small-n sign accepts: six
// bit-sliced planes count to 2⁶-1.
const MaxSmallSign = 63

// smallArgs is the argument block of the one-sweep small-sign kernels,
// one per BitCounter. Its field offsets are part of the assembly ABI —
// kernels_amd64.s addresses them by the byte offsets noted below — and
// are pinned by TestSmallArgsABIOffsets.
//
// The first three fields are the operand table: SignXorPairsSmallInto
// walks its pairs into them once per call and pads them with zeroWords to
// whole blocks of eight, which flow through the cascade without adding to
// any count. Entries past the padded count are stale and never read.
type smallArgs struct {
	x   [MaxSmallSign + 1]*uint64 // +0    A streams
	y   [MaxSmallSign + 1]*uint64 // +512  B streams
	inv [MaxSmallSign + 1]uint64  // +1024 XNOR masks

	tie, dst *uint64   // +1536, +1544
	cm       [6]uint64 // +1552 ripple-compare constant, one all-0/all-1 mask per plane
	even     uint64    // +1600 ~0 for even n, whose ties copy tie; 0 for odd n

	blocks int64  // +1608 eight-pair blocks in the table
	n      int64  // +1616 words; a multiple of 4 on AVX2, any count on AVX-512
	tail   uint64 // +1624 valid bits of word n-1, which the AVX-512 kernel ANDs into dst
}

// majorityConsts returns the ripple-compare constants of an n-vector
// majority. Adding 64 - (n/2 + 1) to a six-bit count carries out of the
// sixth plane exactly when the count reaches the majority threshold
// n/2 + 1; for even n a sum of exactly 63 marks the ties (count == n/2),
// which copy the tie vector — the same rule as SignBinaryInto. even is
// the tie term's mask.
func majorityConsts(n int) (cm [6]uint64, even uint64) {
	add := 64 - (uint64(n)/2 + 1)
	for b := range cm {
		cm[b] = -(add >> uint(b) & 1)
	}
	if n%2 == 0 {
		even = ^uint64(0)
	}
	return cm, even
}

// SignXorPairsSmallInto computes the majority sign of the XOR/XNOR pairs
// (1 ≤ len(pairs) ≤ MaxSmallSign) into dst, equivalent to
// Reset + AddXorPairs(pairs) + SignBinaryInto(tie, dst) on an empty
// counter. Each output word is assembled before being stored, so dst may
// alias tie. The counter's accumulated state is neither read nor changed.
// Returns dst.
func (c *BitCounter) SignXorPairsSmallInto(pairs []XorPair, tie, dst *Binary) *Binary {
	if len(pairs) == 0 || len(pairs) > MaxSmallSign {
		panic(fmt.Sprintf("hdc: %d pairs outside small-sign range [1,%d]", len(pairs), MaxSmallSign))
	}
	// Pair operands and the tie vector may be wider than the counter
	// (prefix slicing; see BitCounter.SetDim): only the first d components
	// are read and the sweep masks the tail word. dst is canonical output
	// and must match exactly.
	c.checkOperand(tie.d)
	if c.d != dst.d {
		panic(fmt.Sprintf("hdc: destination dimension %d, want %d", dst.d, c.d))
	}
	// One walk over the pairs checks them and fills the operand table.
	a := &c.sargs
	for k := range pairs {
		p := &pairs[k]
		c.checkOperand(p.A.d)
		c.checkOperand(p.B.d)
		a.x[k], a.y[k], a.inv[k] = &p.A.words[0], &p.B.words[0], invMask(p.Invert)
	}
	kern := loadKernels()
	lo := 0
	if kern.signSmall != nil {
		if vn := c.vecWords(kern, true); vn > 0 {
			padded := (len(pairs) + 7) &^ 7
			for k := len(pairs); k < padded; k++ {
				a.x[k], a.y[k], a.inv[k] = &c.zeroWords[0], &c.zeroWords[0], 0
			}
			a.tie, a.dst = &tie.words[0], &dst.words[0]
			a.cm, a.even = majorityConsts(len(pairs))
			a.blocks = int64(padded / 8)
			a.n = int64(vn)
			a.tail = c.tailMask()
			kern.signSmall(a)
			lo = vn
		}
	}
	if lo < c.words {
		c.signSmallRange(pairs, tie, dst, lo)
	}
	return dst
}

// signSmallRange is the portable one-sweep small sign over words
// [lo, words) — the semantic source of truth the vector kernels must
// match bit for bit (the full-range call with lo = 0 is the portable tier
// itself). The operand streams go into a table of slices, zero-padded to
// whole blocks of eight as in smallArgs. For each word the six planes are
// locals: every block runs through the cascade into them, the weight-16
// overflow half-adds into the sixteens and thirty-twos, and the ripple
// compare takes the majority before the word is stored.
func (c *BitCounter) signSmallRange(pairs []XorPair, tie, dst *Binary, lo int) {
	nw := c.words
	last := nw - 1
	tailMask := c.tailMask()
	cm, even := majorityConsts(len(pairs))
	var as, bs [MaxSmallSign + 1][]uint64
	var vs [MaxSmallSign + 1]uint64
	for k := range pairs {
		p := &pairs[k]
		as[k], bs[k], vs[k] = p.A.words[:nw], p.B.words[:nw], invMask(p.Invert)
	}
	padded := (len(pairs) + 7) &^ 7
	for k := len(pairs); k < padded; k++ {
		as[k], bs[k] = c.zeroWords[:nw], c.zeroWords[:nw]
	}
	for w := lo; w < nw; w++ {
		m := ^uint64(0)
		if w == last {
			m = tailMask
		}
		var ones, twos, fours, eights, sixteens, thirtytwos uint64
		for i := 0; i < padded; i += 8 {
			a, b, v := (*[8][]uint64)(as[i:]), (*[8][]uint64)(bs[i:]), (*[8]uint64)(vs[i:])
			x0 := (a[0][w] ^ b[0][w] ^ v[0]) & m
			x1 := (a[1][w] ^ b[1][w] ^ v[1]) & m
			x2 := (a[2][w] ^ b[2][w] ^ v[2]) & m
			x3 := (a[3][w] ^ b[3][w] ^ v[3]) & m
			x4 := (a[4][w] ^ b[4][w] ^ v[4]) & m
			x5 := (a[5][w] ^ b[5][w] ^ v[5]) & m
			x6 := (a[6][w] ^ b[6][w] ^ v[6]) & m
			x7 := (a[7][w] ^ b[7][w] ^ v[7]) & m
			var twosA, twosB, foursA, foursB, e8 uint64
			ones, twosA = csa(ones, x0, x1)
			ones, twosB = csa(ones, x2, x3)
			twos, foursA = csa(twos, twosA, twosB)
			ones, twosA = csa(ones, x4, x5)
			ones, twosB = csa(ones, x6, x7)
			twos, foursB = csa(twos, twosA, twosB)
			fours, e8 = csa(fours, foursA, foursB)
			s16 := eights & e8
			eights ^= e8
			// n ≤ 63 bounds each count below 64, so a second weight-32
			// carry per component cannot occur; |= is exact.
			thirtytwos |= sixteens & s16
			sixteens ^= s16
		}
		// count + add == 63 ⟺ count == n/2 (a tie): all six sum bits
		// set. A simultaneous carry would need count + add ≥ 127,
		// impossible for n ≤ 63, so eq and carry are disjoint.
		carry, eq := uint64(0), ^uint64(0)
		for b, p := range [6]uint64{ones, twos, fours, eights, sixteens, thirtytwos} {
			u := p ^ cm[b]
			eq &= u ^ carry
			carry = (p & cm[b]) | (u & carry)
		}
		dst.words[w] = carry | (eq & even & tie.words[w])
	}
}
