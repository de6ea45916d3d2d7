package hdc

import "fmt"

// Small-n majority sign kernels. Most graphs in serving workloads bundle
// a few dozen edge vectors, far below the capacity the byte/int32
// counter tiers exist to provide. For n ≤ MaxSmallSign the whole count
// fits in six bit-sliced planes (weights 1/2/4/8/16/32), so the majority
// can be taken straight off the carry-save stack with a bit-sliced
// ripple compare — no lane drains, no per-component flushes, and nothing
// for Reset to clear afterwards. These kernels are one-shot: they ignore
// any weight already accumulated in the counter, use its carry-save
// planes as scratch, and leave them zero (the between-calls invariant),
// so interleaving them with ordinary accumulation is safe.
//
// The sign they produce is bit-for-bit the sign of the equivalent
// Reset + AddXorPairs + SignBinaryInto sequence: the planes hold exact
// counts and the compare implements exactly the same majority-with-tie
// rule.
// Like the counter's batch entry points, both the accumulation cascade
// and the plane compare route their words through the dispatched vector
// kernel when one is installed — all of them on AVX-512, the
// lane-aligned prefix on AVX2; the portable loops below remain the
// semantic source of truth and finish whatever the kernel leaves.

// MaxSmallSign is the largest vector count the small-n sign kernels
// accept: six bit-sliced planes count to 2⁶-1.
const MaxSmallSign = 63

// SignXorPairsSmallInto computes the majority sign of the XOR/XNOR pairs
// (1 ≤ len(pairs) ≤ MaxSmallSign) into dst, equivalent to
// Reset + AddXorPairs(pairs) + SignBinaryInto(tie, dst) on an empty
// counter. Each output word is assembled before being stored, so dst may
// alias tie. Returns dst.
func (c *BitCounter) SignXorPairsSmallInto(pairs []XorPair, tie, dst *Binary) *Binary {
	if len(pairs) == 0 || len(pairs) > MaxSmallSign {
		panic(fmt.Sprintf("hdc: %d pairs outside small-sign range [1,%d]", len(pairs), MaxSmallSign))
	}
	// Pair operands and the tie vector may be wider than the counter
	// (prefix slicing; see BitCounter.SetDim): only the first d components
	// are read and the cascade masks the tail word. dst is canonical
	// output and must match exactly.
	c.checkOperand(tie.d)
	if c.d != dst.d {
		panic(fmt.Sprintf("hdc: destination dimension %d, want %d", dst.d, c.d))
	}
	for _, p := range pairs {
		c.checkOperand(p.A.d)
		c.checkOperand(p.B.d)
	}
	kern := loadKernels()
	nw := c.words
	c.csaParked = true
	var aws, bws [8][]uint64
	var vs [8]uint64
	for i := 0; i < len(pairs); i += 8 {
		n := len(pairs) - i
		if n > 8 {
			n = 8
		}
		for k := 0; k < n; k++ {
			p := &pairs[i+k]
			aws[k], bws[k], vs[k] = p.A.words[:nw], p.B.words[:nw], invMask(p.Invert)
		}
		for k := n; k < 8; k++ {
			aws[k], bws[k], vs[k] = c.zeroWords, c.zeroWords, 0
		}
		lo := 0
		if kern.csaXorSmallBlock != nil {
			if vn := c.vecWords(kern, true); vn > 0 {
				a := &c.kargs
				for k := 0; k < 8; k++ {
					a.x[k] = &aws[k][0]
					a.y[k] = &bws[k][0]
					a.inv[k] = vs[k]
				}
				a.n = int64(vn)
				kern.csaXorSmallBlock(a)
				lo = vn
			}
		}
		if lo < nw {
			c.csaXorSmallBlock8Range(&aws, &bws, &vs, lo)
		}
	}
	return c.signPlanesInto(kern, len(pairs), tie, dst)
}

// csaXorSmallBlock8Range is the portable small-sign cascade for one
// block of eight XOR/XNOR operand streams over words [lo, words),
// overflowing weight 16 into the sixteens/thirtytwos planes — the
// semantic source of truth for the vector small-sign tiers.
func (c *BitCounter) csaXorSmallBlock8Range(aws, bws *[8][]uint64, vs *[8]uint64, lo int) {
	nw := c.words
	last := nw - 1
	tail := c.tailMask()
	ones, twos, fours, eights := c.csaOnes, c.csaTwos, c.csaFours, c.csaEights
	sixteens, thirtytwos := c.csaSixteens, c.csaThirtyTwos
	a0, b0, v0 := aws[0], bws[0], vs[0]
	a1, b1, v1 := aws[1], bws[1], vs[1]
	a2, b2, v2 := aws[2], bws[2], vs[2]
	a3, b3, v3 := aws[3], bws[3], vs[3]
	a4, b4, v4 := aws[4], bws[4], vs[4]
	a5, b5, v5 := aws[5], bws[5], vs[5]
	a6, b6, v6 := aws[6], bws[6], vs[6]
	a7, b7, v7 := aws[7], bws[7], vs[7]
	for w := lo; w < nw; w++ {
		m := ^uint64(0)
		if w == last {
			m = tail
		}
		x0 := (a0[w] ^ b0[w] ^ v0) & m
		x1 := (a1[w] ^ b1[w] ^ v1) & m
		x2 := (a2[w] ^ b2[w] ^ v2) & m
		x3 := (a3[w] ^ b3[w] ^ v3) & m
		x4 := (a4[w] ^ b4[w] ^ v4) & m
		x5 := (a5[w] ^ b5[w] ^ v5) & m
		x6 := (a6[w] ^ b6[w] ^ v6) & m
		x7 := (a7[w] ^ b7[w] ^ v7) & m
		o, twosA := csa(ones[w], x0, x1)
		o, twosB := csa(o, x2, x3)
		t, foursA := csa(twos[w], twosA, twosB)
		o, twosA = csa(o, x4, x5)
		o, twosB = csa(o, x6, x7)
		t, foursB := csa(t, twosA, twosB)
		f, e8 := csa(fours[w], foursA, foursB)
		e := eights[w]
		s16 := e & e8
		ones[w], twos[w], fours[w], eights[w] = o, t, f, e^e8
		if s16 != 0 {
			// n ≤ 63 bounds each count below 64, so a second weight-32
			// carry per component cannot occur; |= is exact.
			thirtytwos[w] |= sixteens[w] & s16
			sixteens[w] ^= s16
		}
	}
}

// signPlanesInto takes the majority of the n vectors accumulated in the
// six carry-save planes, writes it into dst, and zeroes the planes. The
// compare is a bit-sliced ripple-carry addition of the constant
// 64 - (n/2 + 1): the carry out of the sixth plane is set exactly for
// components whose count reaches the majority threshold n/2 + 1, and for
// even n a sum of exactly 63 identifies the ties (count == n/2), which
// copy the tie vector — the same rule as SignBinaryInto. The vector
// kernel computes the identical compare (with the tie term masked off
// for odd n) on the words vecWords gives it.
func (c *BitCounter) signPlanesInto(kern *kernelTable, n int, tie, dst *Binary) *Binary {
	k := uint64(n)/2 + 1
	add := 64 - k
	var cm [6]uint64 // constant bit masks for the ripple add
	for b := range cm {
		if add>>uint(b)&1 == 1 {
			cm[b] = ^uint64(0)
		}
	}
	even := n%2 == 0
	lo := 0
	if kern.signPlanes != nil {
		if vn := c.vecWords(kern, false); vn > 0 {
			a := &c.kargs
			a.x[0] = &tie.words[0]
			a.y[0] = &dst.words[0]
			copy(a.inv[:6], cm[:])
			a.inv[6] = 0
			if even {
				a.inv[6] = ^uint64(0)
			}
			a.n = int64(vn)
			kern.signPlanes(a)
			lo = vn
		}
	}
	if lo < c.words {
		c.signPlanesRange(&cm, even, tie, dst, lo)
	}
	c.csaParked = false
	return dst
}

// signPlanesRange is the portable plane compare over words [lo, words) —
// the semantic source of truth for the vector signPlanes kernels. It
// zeroes the plane words it consumes.
func (c *BitCounter) signPlanesRange(cm *[6]uint64, even bool, tie, dst *Binary, lo int) {
	planes := [6][]uint64{c.csaOnes, c.csaTwos, c.csaFours, c.csaEights, c.csaSixteens, c.csaThirtyTwos}
	for w := lo; w < c.words; w++ {
		carry := uint64(0)
		if even {
			// count + add == 63 ⟺ count == n/2 (a tie): all six sum bits
			// set. A simultaneous carry would need count + add ≥ 127,
			// impossible for n ≤ 63, so eq and carry are disjoint.
			eq := ^uint64(0)
			for b, lane := range planes {
				p := lane[w]
				lane[w] = 0
				u := p ^ cm[b]
				eq &= u ^ carry
				carry = (p & cm[b]) | (u & carry)
			}
			dst.words[w] = carry | (eq & tie.words[w])
		} else {
			// Odd n cannot tie; only the carry chain is needed.
			for b, lane := range planes {
				p := lane[w]
				lane[w] = 0
				carry = (p & cm[b]) | ((p ^ cm[b]) & carry)
			}
			dst.words[w] = carry
		}
	}
}
