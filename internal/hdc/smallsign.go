package hdc

import "fmt"

// Small-n majority sign. Most graphs in both benchmark workloads bundle a
// few dozen edge vectors, far below the capacity the byte/int32 counter
// tiers exist to provide. For n ≤ MaxSmallSign every count fits in six
// bit-sliced planes (weights 1/2/4/8/16/32), so the sign is one sweep
// over the words: for each word (or vector group of words) the six
// planes live in registers while every key of the graph runs through the
// Harley–Seal cascade, eight at a time, and the majority comes straight
// off them by a bit-sliced ripple compare before dst is stored. No plane
// is ever loaded or stored, no lane is drained, and nothing is left for
// Reset to clear. The sign ignores any weight already accumulated in the
// counter and leaves it untouched, so interleaving it with ordinary
// accumulation is safe.
//
// The planes count the XOR of each key's two rows, and the compare is
// complemented, so the sign is the majority of their XNORs — the edge
// binds of the packed encoder. It is bit-for-bit the sign of the
// equivalent Reset + AddXorKeys + SignXnorInto sequence: the planes hold
// exact counts and the compare implements exactly the same
// majority-with-tie rule. On a vector tier the dispatched kernel sweeps
// the words vecLen gives it — all of them on AVX-512, the lane-aligned
// prefix on AVX2 — from the key table in the counter; signSmallRange,
// the portable loop and the semantic source of truth, finishes whatever
// it leaves.

// MaxSmallSign is the largest key count the small-n sign accepts: six
// bit-sliced planes count to 2⁶-1.
const MaxSmallSign = 63

// smallArgs is the argument block of the one-sweep small-sign kernels,
// one per BitCounter. Its field offsets are part of the assembly ABI —
// kernels_amd64.s addresses them by the byte offsets noted below — and
// are pinned by TestSmallArgsABIOffsets.
//
// keys is the key table: SignXnorKeysSmallInto copies the call's keys
// into it and pads them with zero keys to whole blocks of eight. A zero
// key XORs row 0 with itself, so the padding flows through the cascade
// without adding to any count. Entries past the padded count are stale
// and never read.
type smallArgs struct {
	keys [MaxSmallSign + 1]uint64 // +0

	slab, tie, dst *uint64   // +512, +520, +528
	cm             [6]uint64 // +536 ripple-compare constant, one all-0/all-1 mask per plane
	even           uint64    // +584 ~0 for even n, whose ties copy tie; 0 for odd n

	blocks int64 // +592 eight-key blocks in the table
	n      int64 // +600 words; a multiple of 4 on AVX2, any count on AVX-512
}

// majorityConsts returns the ripple-compare constants of an n-vector
// majority. Adding 64 - (n/2 + 1) to a six-bit XOR count c′ carries out
// of the sixth plane exactly when c′ ≥ n/2 + 1, and for even n a sum of
// exactly 63 marks the ties (c′ == n/2). The XNOR count is n − c′, so
// its majority is set where there is no carry and no tie, and copies
// the tie vector on a tie — the rule of SignBinaryInto on the XNORs.
// even is the tie term's mask.
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

// SignXnorKeysSmallInto computes into dst the majority sign of the XNORs
// of 1 ≤ len(keys) ≤ MaxSmallSign keyed row pairs of slab, equivalent to
// Reset + AddXorKeys(slab, keys) + SignXnorInto(tie, dst) on an empty
// counter. Each output word is assembled before being stored, so dst may
// alias tie. The counter's accumulated state is neither read nor changed.
// Returns dst.
func (c *BitCounter) SignXnorKeysSmallInto(slab, keys []uint64, tie, dst *Binary) *Binary {
	if len(keys) == 0 || len(keys) > MaxSmallSign {
		panic(fmt.Sprintf("hdc: %d keys outside small-sign range [1,%d]", len(keys), MaxSmallSign))
	}
	c.checkDim(tie.d)
	c.checkDim(dst.d)
	c.checkKeys(slab, keys)
	a := &c.sargs
	padded := (len(keys) + 7) &^ 7
	copy(a.keys[:], keys)
	clear(a.keys[len(keys):padded])
	a.cm, a.even = majorityConsts(len(keys))
	kern := loadKernels()
	lo := 0
	if kern.signSmall != nil {
		if vn := kern.vecLen(c.words); vn > 0 {
			a.slab, a.tie, a.dst = &slab[0], &tie.words[0], &dst.words[0]
			a.blocks = int64(padded / 8)
			a.n = int64(vn)
			kern.signSmall(a)
			a.slab, a.tie, a.dst = nil, nil, nil // pin no slab between calls
			lo = vn
		}
	}
	if lo < c.words {
		c.signSmallRange(slab, padded, tie, dst, lo)
	}
	// Past the dimension every XOR count is zero, which the complemented
	// compare reads as a majority of ones.
	dst.words[c.words-1] &= c.tailMask()
	return dst
}

// signSmallRange is the portable one-sweep small sign over words
// [lo, words) of the first padded entries of the key table — the semantic
// source of truth the vector kernels must match bit for bit (the
// full-range call with lo = 0 is the portable tier itself). For each
// word the six planes are locals: every block runs through the cascade
// into them, the weight-16 overflow half-adds into the sixteens and
// thirty-twos, and the complemented ripple compare takes the majority
// before the word is stored.
func (c *BitCounter) signSmallRange(slab []uint64, padded int, tie, dst *Binary, lo int) {
	nw := c.words
	cm, even := c.sargs.cm, c.sargs.even
	var as, bs [MaxSmallSign + 1][]uint64
	for k, key := range c.sargs.keys[:padded] {
		as[k], bs[k] = slab[key>>32:][:nw], slab[uint32(key):][:nw]
	}
	for w := lo; w < nw; w++ {
		var ones, twos, fours, eights, sixteens, thirtytwos uint64
		for i := 0; i < padded; i += 8 {
			a, b := (*[8][]uint64)(as[i:]), (*[8][]uint64)(bs[i:])
			var twosA, twosB, foursA, foursB, e8 uint64
			ones, twosA = csa(ones, a[0][w]^b[0][w], a[1][w]^b[1][w])
			ones, twosB = csa(ones, a[2][w]^b[2][w], a[3][w]^b[3][w])
			twos, foursA = csa(twos, twosA, twosB)
			ones, twosA = csa(ones, a[4][w]^b[4][w], a[5][w]^b[5][w])
			ones, twosB = csa(ones, a[6][w]^b[6][w], a[7][w]^b[7][w])
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
		ties := eq & even
		dst.words[w] = ^(carry | ties) | (ties & tie.words[w])
	}
}
