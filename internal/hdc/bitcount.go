package hdc

import (
	"fmt"
	"math"
	"math/bits"
)

// BitCounter counts, per component, how many of the added binary
// hypervectors had that bit set — the quantity majority bundling needs —
// without unpacking bits to integers. Components are accumulated in
// nibble-packed SWAR lanes: lane j of word w holds 4-bit counters for the
// 16 components {64w + 4k + j}, so one Add costs a handful of branchless
// word operations per 64 components instead of 64 integer additions.
// Nibble lanes fold into byte lanes whenever their accumulated weight
// would exceed 15 and byte lanes flush into full int32 counters before
// their weight can exceed 255, keeping the per-component work amortized
// far below one operation per add.
//
// The batch entry point AddXorPairs puts a Harley–Seal carry-save front
// end ahead of the lanes: groups of eight vectors are reduced per 64-bit
// word through a cascade of carry-save adders into persistent
// bit-sliced partial sums of weight 1/2/4/8, and only the
// weight-16 overflow of the top slice reaches a counter lane (the byte
// lanes, which absorb it directly) — one lane update per ~16 vectors
// instead of one per vector, with no nibble folding on the blocked path
// at all. AddXorWeighted accumulates one vector with an integer
// multiplicity, feeding the lanes the multiplicity directly instead of
// re-adding the vector.
//
// This is the software analogue of the "binarized bundling" hardware
// optimization of Schmuck et al. (JETC 2019) and is what makes GraphHD's
// packed encoder fast on CPUs.
//
// The total accumulated weight (Count) is capped at MaxAdds so that no
// per-component count can ever overflow its int32 storage; the add entry
// points panic past the cap.
//
// BitCounter is not safe for concurrent use; each encoding goroutine owns
// its own counter.
type BitCounter struct {
	d     int
	words int
	// dcap is the construction-time dimension: the capacity ceiling for
	// SetDim. All tier storage is sized for dcap; d ≤ dcap selects the
	// active prefix. countsAll is the full-capacity int32 slab that counts
	// re-slices into at the active width.
	dcap      int
	countsAll []int32
	// nib[j][w]: 16 nibble counters for components 64w + 4k + j.
	nib [4][]uint64
	// byteLo[j]/byteHi[j]: byte counters absorbing the even/odd nibbles of
	// lane j, so the expensive per-component flush runs every ~255 units
	// of weight instead of every 15.
	byteLo, byteHi [4][]uint64
	// csaOnes/csaTwos/csaFours/csaEights: bit-sliced carry-save partial
	// sums of weight 1, 2, 4 and 8 used by the blocked front end. They are
	// nonzero only while a batch call is running; the call drains them
	// into the nibble lanes before returning. All six planes are views
	// into one contiguous slab so the vector kernels stream them with a
	// single base pointer.
	csaOnes, csaTwos, csaFours, csaEights []uint64
	// csaSixteens/csaThirtyTwos extend the plane stack for the small-n
	// sign kernel (SignXorPairsSmallInto), which keeps counts of up to 63
	// vectors entirely bit-sliced and never touches the nibble/byte/int32
	// tiers. Zero between calls, like the others.
	csaSixteens, csaThirtyTwos []uint64
	// csaParked is set while the carry-save planes hold weight that has
	// not yet reached a counter tier (mid batch call, or between a
	// small-sign accumulation and its plane compare). Every observer
	// funnels through flush, which drains parked planes first, so no
	// accessor — Popcount, CountAt, CountsInto, the sign fallbacks — can
	// ever see weight parked below the lane tiers, whichever kernel tier
	// (portable or vector) parked it.
	csaParked bool
	// kargs is the pre-resolved argument block handed to the vector
	// kernels; the plane and lane pointers are filled once at
	// construction, the stream pointers per block.
	kargs csaArgs
	// zeroWords is an all-zero operand used to pad the final partial block
	// of the carry-save kernels: feeding zeros through the CSA cascade
	// contributes nothing to any count, so a short tail costs one extra
	// block sweep instead of per-vector scalar lane updates.
	zeroWords   []uint64
	pendingNib  int // weight added to nibble lanes since the last fold, <= 15
	pendingByte int // weight folded into byte lanes since the last flush, <= 255
	// countsDirty records whether the int32 counters hold any weight; when
	// they do not and n fits a byte, Sign* can run its SWAR fast path
	// straight off the byte lanes.
	countsDirty bool
	counts      []int32
	n           int
}

const (
	nibbleLaneMask = 0x1111111111111111
	byteLaneMask   = 0x0F0F0F0F0F0F0F0F
	byteStride     = 0x0101010101010101
	byteHighBits   = 0x8080808080808080
)

// MaxAdds is the maximum total weight a BitCounter accepts. Every
// per-component count is bounded by the total weight, so this cap is
// exactly what keeps the int32 counters from overflowing silently.
const MaxAdds = math.MaxInt32

// NewBitCounter returns an empty counter for dimension d.
func NewBitCounter(d int) *BitCounter {
	if d <= 0 {
		panic("hdc: non-positive dimension")
	}
	w := (d + 63) / 64
	c := &BitCounter{d: d, dcap: d, words: w, counts: make([]int32, d)}
	c.countsAll = c.counts
	for j := range c.nib {
		c.nib[j] = make([]uint64, w)
	}
	// The byte lanes and carry-save planes are views into contiguous
	// slabs: the vector kernels address all of them from the base
	// pointers below, and one allocation each keeps them cache-adjacent.
	laneSlab := make([]uint64, 8*w)
	for j := range c.byteLo {
		c.byteLo[j] = laneSlab[j*w : (j+1)*w : (j+1)*w]
		c.byteHi[j] = laneSlab[(4+j)*w : (5+j)*w : (5+j)*w]
	}
	csaSlab := make([]uint64, 6*w)
	c.csaOnes = csaSlab[0*w : 1*w : 1*w]
	c.csaTwos = csaSlab[1*w : 2*w : 2*w]
	c.csaFours = csaSlab[2*w : 3*w : 3*w]
	c.csaEights = csaSlab[3*w : 4*w : 4*w]
	c.csaSixteens = csaSlab[4*w : 5*w : 5*w]
	c.csaThirtyTwos = csaSlab[5*w : 6*w : 6*w]
	c.zeroWords = make([]uint64, w)
	c.kargs.ones = &c.csaOnes[0]
	c.kargs.twos = &c.csaTwos[0]
	c.kargs.fours = &c.csaFours[0]
	c.kargs.eights = &c.csaEights[0]
	c.kargs.sixteens = &c.csaSixteens[0]
	c.kargs.thirtytwos = &c.csaThirtyTwos[0]
	c.kargs.l0, c.kargs.l1, c.kargs.l2, c.kargs.l3 = &c.byteLo[0][0], &c.byteLo[1][0], &c.byteLo[2][0], &c.byteLo[3][0]
	c.kargs.h0, c.kargs.h1, c.kargs.h2, c.kargs.h3 = &c.byteHi[0][0], &c.byteHi[1][0], &c.byteHi[2][0], &c.byteHi[3][0]
	return c
}

// vecWords returns how many leading words of this counter's planes a
// vector kernel of the given tier should process: the largest
// lane-aligned prefix, excluding the tail word when masked operand
// streams require per-word masking there (d not a multiple of 64). The
// caller finishes words [vecWords, words) on the portable path.
func (c *BitCounter) vecWords(k *kernelTable, masked bool) int {
	full := c.words
	if masked && c.d&63 != 0 {
		full--
	}
	return full &^ (k.lanes - 1)
}

// Dim returns the active dimensionality.
func (c *BitCounter) Dim() int { return c.d }

// Capacity returns the construction-time dimension: the largest value
// SetDim accepts.
func (c *BitCounter) Capacity() int { return c.dcap }

// SetDim re-targets the counter at dimension d, reusing the storage
// allocated at construction — the prefix-slicing hook that lets one
// counter serve encodes of several widths with zero reallocation. d must
// lie in [1, Capacity()]. Any accumulated weight is discarded (the
// counter is Reset at its current width first, where all dirty state
// lives, so narrowing then widening never resurrects stale counts).
//
// Operands handed to the accumulation entry points may be wider than the
// active dimension: only the first d components are read and the tail
// word is masked, so full-width basis vectors feed a narrowed counter
// directly, with no per-call prefix views.
func (c *BitCounter) SetDim(d int) {
	if d == c.d {
		return
	}
	if d < 1 || d > c.dcap {
		panic(fmt.Sprintf("hdc: dimension %d outside counter capacity [1,%d]", d, c.dcap))
	}
	c.Reset()
	c.d = d
	c.words = (d + 63) / 64
	c.counts = c.countsAll[:d]
}

// Count returns the total weight added so far (the number of hypervectors
// for unit-weight adds).
func (c *BitCounter) Count() int { return c.n }

// checkAdds panics if accepting weight more units would push the counter
// past MaxAdds, the documented overflow cap.
func (c *BitCounter) checkAdds(weight int) {
	if weight > MaxAdds-c.n {
		panic(fmt.Sprintf("hdc: BitCounter overflow: %d more adds on top of %d exceeds the %d cap", weight, c.n, MaxAdds))
	}
}

// tailMask returns the mask of valid bits in the final word.
func (c *BitCounter) tailMask() uint64 {
	if r := c.d & 63; r != 0 {
		return (1 << uint(r)) - 1
	}
	return ^uint64(0)
}

// checkOperand panics unless an operand of dimension d can cover the
// counter's active dimension. Operands wider than c.d are accepted — the
// prefix-slicing contract: accumulation reads only the first c.d
// components and masks the tail word, so full-width vectors feed a
// narrowed counter directly.
func (c *BitCounter) checkOperand(d int) {
	if d < c.d {
		panic(fmt.Sprintf("hdc: operand dimension %d below counter dimension %d", d, c.d))
	}
}

// Add accumulates the first d components of one binary hypervector
// (b may be wider than the counter; see SetDim).
func (c *BitCounter) Add(b *Binary) {
	c.checkOperand(b.d)
	c.checkAdds(1)
	c.n++
	c.addWordsLanes(b.words)
}

// AddXor accumulates the XOR (or, with invert, the XNOR) of two binary
// hypervectors without materializing it — the per-edge scalar path of the
// packed GraphHD encoder, where an edge hypervector is the XNOR of its
// endpoint vectors. The tail beyond d bits is masked so complemented
// garbage never reaches the counters. Batches of edges go faster through
// AddXorPairs.
func (c *BitCounter) AddXor(a, b *Binary, invert bool) {
	c.checkOperand(a.d)
	c.checkOperand(b.d)
	c.checkAdds(1)
	c.n++
	c.addXorLanes(a.words, b.words, invert)
}

// addXorLanes feeds one XOR/XNOR vector into the nibble lanes (weight 1,
// no count accounting).
func (c *BitCounter) addXorLanes(aw, bw []uint64, invert bool) {
	// Fold BEFORE feeding: weighted feeds may leave pendingNib at exactly
	// 15, and a nibble at 15 would wrap to 0 and carry into its neighbor
	// if one more unit landed first.
	if c.pendingNib+1 > 15 {
		c.foldNibbles()
	}
	c.pendingNib++
	n0, n1, n2, n3 := c.nib[0], c.nib[1], c.nib[2], c.nib[3]
	// Both branches mask the tail word: under inversion the complement
	// sets the unused high bits, and operands wider than the counter
	// (prefix slicing) carry live bits there even without inversion.
	tailMask := c.tailMask()
	last := c.words - 1
	if invert {
		for w := 0; w < c.words; w++ {
			x := ^(aw[w] ^ bw[w])
			if w == last {
				x &= tailMask
			}
			n0[w] += x & nibbleLaneMask
			n1[w] += (x >> 1) & nibbleLaneMask
			n2[w] += (x >> 2) & nibbleLaneMask
			n3[w] += (x >> 3) & nibbleLaneMask
		}
	} else {
		for w := 0; w < c.words; w++ {
			x := aw[w] ^ bw[w]
			if w == last {
				x &= tailMask
			}
			n0[w] += x & nibbleLaneMask
			n1[w] += (x >> 1) & nibbleLaneMask
			n2[w] += (x >> 2) & nibbleLaneMask
			n3[w] += (x >> 3) & nibbleLaneMask
		}
	}
}

// addWordsLanes feeds one raw word vector into the nibble lanes (weight 1,
// no count accounting).
func (c *BitCounter) addWordsLanes(x []uint64) {
	// Fold before feeding — same capacity argument as addXorLanes.
	if c.pendingNib+1 > 15 {
		c.foldNibbles()
	}
	c.pendingNib++
	n0, n1, n2, n3 := c.nib[0], c.nib[1], c.nib[2], c.nib[3]
	tailMask := c.tailMask()
	last := c.words - 1
	for w := 0; w < c.words; w++ {
		v := x[w]
		if w == last {
			// Operands wider than the counter carry live bits past d.
			v &= tailMask
		}
		n0[w] += v & nibbleLaneMask
		n1[w] += (v >> 1) & nibbleLaneMask
		n2[w] += (v >> 2) & nibbleLaneMask
		n3[w] += (v >> 3) & nibbleLaneMask
	}
}

// csa is a 3:2 carry-save adder: it compresses three bit-sliced summands
// of equal weight into a same-weight sum slice and a double-weight carry
// slice.
func csa(a, b, cin uint64) (sum, carry uint64) {
	u := a ^ b
	return u ^ cin, (a & b) | (u & cin)
}

// XorPair names one AddXorPairs operand pair: the XOR of A and B, or the
// XNOR when Invert is set.
type XorPair struct {
	A, B   *Binary
	Invert bool
}

// AddXorPairs accumulates a block of XOR/XNOR edge vectors — equivalent to
// calling AddXor for each pair in order, but routed through the
// carry-save front end: groups of eight pairs are reduced per word by a
// Harley–Seal CSA cascade into the persistent weight-1/2/4/8 slices, and
// only the weight-16 overflow of the top tier touches a counter lane (the
// byte lanes, which absorb it directly). A full block therefore costs one
// lane update per ~16 edges instead of one per edge, and the inner loop
// is a single cache-friendly sweep over the d/64 words of the block's
// operands. A short final block is padded with zero operands, which flow
// through the CSA cascade without contributing to any count.
func (c *BitCounter) AddXorPairs(pairs []XorPair) {
	for _, p := range pairs {
		c.checkOperand(p.A.d)
		c.checkOperand(p.B.d)
	}
	c.checkAdds(len(pairs))
	c.n += len(pairs)
	if len(pairs) == 0 {
		return
	}
	kern := loadKernels()
	nw := c.words
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
		// A short final block is padded with zero streams: XOR of two
		// zero streams contributes nothing to any count, so the tail
		// costs one block sweep instead of per-vector lane updates.
		for k := n; k < 8; k++ {
			aws[k], bws[k], vs[k] = c.zeroWords, c.zeroWords, 0
		}
		c.addXorBlock8(kern, &aws, &bws, &vs)
	}
	c.drainCarrySave()
}

// addXorBlock8 feeds one Harley–Seal block of exactly eight XOR/XNOR
// operand streams (zero-padded by the caller if fewer are live) through
// the carry-save cascade, overflowing weight 16 into the byte lanes.
// The vector kernel, when one is installed, sweeps the lane-aligned
// word prefix; the portable loop finishes the rest, including the
// masked tail word. Count accounting is the caller's.
func (c *BitCounter) addXorBlock8(kern *kernelTable, aws, bws *[8][]uint64, vs *[8]uint64) {
	// The sixteens overflow carries up to 16 units per component
	// into the byte lanes.
	if c.pendingByte+16 > 255 {
		c.flushBytes()
	}
	c.pendingByte += 16
	c.csaParked = true
	lo := 0
	if kern.csaXorBlock != nil {
		if vn := c.vecWords(kern, true); vn > 0 {
			a := &c.kargs
			for k := 0; k < 8; k++ {
				a.x[k] = &aws[k][0]
				a.y[k] = &bws[k][0]
				a.inv[k] = vs[k]
			}
			a.n = int64(vn)
			kern.csaXorBlock(a)
			lo = vn
		}
	}
	c.csaXorBlock8Range(aws, bws, vs, lo)
}

// csaXorBlock8Range is the portable CSA cascade for one block of eight
// XOR/XNOR operand streams over words [lo, words) — the semantic source
// of truth the vector tiers must match bit for bit (the full-range call
// with lo = 0 is the portable tier itself).
func (c *BitCounter) csaXorBlock8Range(aws, bws *[8][]uint64, vs *[8]uint64, lo int) {
	nw := c.words
	last := nw - 1
	tail := c.tailMask()
	ones, twos, fours, eights := c.csaOnes, c.csaTwos, c.csaFours, c.csaEights
	a0, b0, v0 := aws[0], bws[0], vs[0]
	a1, b1, v1 := aws[1], bws[1], vs[1]
	a2, b2, v2 := aws[2], bws[2], vs[2]
	a3, b3, v3 := aws[3], bws[3], vs[3]
	a4, b4, v4 := aws[4], bws[4], vs[4]
	a5, b5, v5 := aws[5], bws[5], vs[5]
	a6, b6, v6 := aws[6], bws[6], vs[6]
	a7, b7, v7 := aws[7], bws[7], vs[7]
	l0, l1, l2, l3 := c.byteLo[0], c.byteLo[1], c.byteLo[2], c.byteLo[3]
	h0, h1, h2, h3 := c.byteHi[0], c.byteHi[1], c.byteHi[2], c.byteHi[3]
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
			l0[w] += (s16 & byteStride) << 4
			l1[w] += ((s16 >> 1) & byteStride) << 4
			l2[w] += ((s16 >> 2) & byteStride) << 4
			l3[w] += ((s16 >> 3) & byteStride) << 4
			h0[w] += ((s16 >> 4) & byteStride) << 4
			h1[w] += ((s16 >> 5) & byteStride) << 4
			h2[w] += ((s16 >> 6) & byteStride) << 4
			h3[w] += ((s16 >> 7) & byteStride) << 4
		}
	}
}

// invMask maps an invert flag to the XOR mask that applies it.
func invMask(invert bool) uint64 {
	if invert {
		return ^uint64(0)
	}
	return 0
}

// drainCarrySave feeds the parked weight-1/2/4/8 carry-save slices into
// the counter lanes and zeroes them, restoring the invariant that all
// accumulated weight lives in the lane/counter tiers between calls.
func (c *BitCounter) drainCarrySave() {
	c.csaParked = false
	// A bit can be set in all four slices at once, so the drain carries up
	// to 1+2+4+8 = 15 units of weight per component.
	ones, twos, fours, eights := c.csaOnes, c.csaTwos, c.csaFours, c.csaEights
	if c.pendingNib == 0 {
		// Common case on the blocked path: the nibble lanes are empty, so
		// the assembled 4-bit values can split straight into the byte
		// lanes — one conversion instead of the CSA→nibble→byte double
		// round trip (the nibble tier's whole job is batching scalar adds,
		// and there is nothing to batch with here).
		if c.pendingByte+15 > 255 {
			c.flushBytes()
		}
		c.pendingByte += 15
		for w := 0; w < c.words; w++ {
			o, t, f, e := ones[w], twos[w], fours[w], eights[w]
			if o|t|f|e == 0 {
				continue
			}
			ones[w], twos[w], fours[w], eights[w] = 0, 0, 0, 0
			for j := 0; j < 4; j++ {
				v := ((o >> j) & nibbleLaneMask) + (((t>>j)&nibbleLaneMask)<<1 + (((f>>j)&nibbleLaneMask)<<2 + (((e >> j) & nibbleLaneMask) << 3)))
				c.byteLo[j][w] += v & byteLaneMask
				c.byteHi[j][w] += (v >> 4) & byteLaneMask
			}
		}
		return
	}
	// Scalar adds are pending in the nibble tier: the drain's up-to-15
	// units fill a nibble's full capacity, so prior weight folds out
	// first and the drain lands in the nibble lanes.
	c.foldNibbles()
	c.pendingNib = 15
	n0, n1, n2, n3 := c.nib[0], c.nib[1], c.nib[2], c.nib[3]
	for w := 0; w < c.words; w++ {
		o, t, f, e := ones[w], twos[w], fours[w], eights[w]
		if o|t|f|e == 0 {
			continue
		}
		ones[w], twos[w], fours[w], eights[w] = 0, 0, 0, 0
		n0[w] += (o & nibbleLaneMask) + ((t&nibbleLaneMask)<<1 + ((f&nibbleLaneMask)<<2 + ((e & nibbleLaneMask) << 3)))
		n1[w] += ((o >> 1) & nibbleLaneMask) + (((t>>1)&nibbleLaneMask)<<1 + (((f>>1)&nibbleLaneMask)<<2 + (((e >> 1) & nibbleLaneMask) << 3)))
		n2[w] += ((o >> 2) & nibbleLaneMask) + (((t>>2)&nibbleLaneMask)<<1 + (((f>>2)&nibbleLaneMask)<<2 + (((e >> 2) & nibbleLaneMask) << 3)))
		n3[w] += ((o >> 3) & nibbleLaneMask) + (((t>>3)&nibbleLaneMask)<<1 + (((f>>3)&nibbleLaneMask)<<2 + (((e >> 3) & nibbleLaneMask) << 3)))
	}
}

// AddXorWeighted accumulates the XOR (or, with invert, the XNOR) of a and
// b with integer multiplicity weight — exactly equivalent to calling
// AddXor weight times, in O(weight/15) lane sweeps for small weights and
// one direct pass over the int32 counters for large ones. This is what
// lets the encoder accumulate each distinct rank-pair bind vector once,
// however many edges map to it. A zero weight is a no-op; negative
// weights panic.
func (c *BitCounter) AddXorWeighted(a, b *Binary, invert bool, weight int) {
	c.checkOperand(a.d)
	c.checkOperand(b.d)
	if weight < 0 {
		panic(fmt.Sprintf("hdc: negative weight %d", weight))
	}
	if weight == 0 {
		return
	}
	c.checkAdds(weight)
	c.n += weight
	aw, bw := a.words, b.words
	last := c.words - 1
	tail := c.tailMask()
	if weight > 64 {
		// Large multiplicities skip the SWAR tiers: weight is added
		// straight to the int32 counters per set bit. The counters and the
		// lanes are independent addends, so no flush is needed first.
		c.countsDirty = true
		for w := 0; w < c.words; w++ {
			x := aw[w] ^ bw[w]
			if invert {
				x = ^x
			}
			if w == last {
				x &= tail
			}
			base := w << 6
			for x != 0 {
				c.counts[base+bits.TrailingZeros64(x)] += int32(weight)
				x &= x - 1
			}
		}
		return
	}
	n0, n1, n2, n3 := c.nib[0], c.nib[1], c.nib[2], c.nib[3]
	for weight > 0 {
		chunk := weight
		if chunk > 15 {
			chunk = 15
		}
		weight -= chunk
		if c.pendingNib+chunk > 15 {
			c.foldNibbles()
		}
		c.pendingNib += chunk
		cw := uint64(chunk)
		for w := 0; w < c.words; w++ {
			x := aw[w] ^ bw[w]
			if invert {
				x = ^x
			}
			if w == last {
				x &= tail
			}
			n0[w] += (x & nibbleLaneMask) * cw
			n1[w] += ((x >> 1) & nibbleLaneMask) * cw
			n2[w] += ((x >> 2) & nibbleLaneMask) * cw
			n3[w] += ((x >> 3) & nibbleLaneMask) * cw
		}
	}
}

// foldNibbles drains the nibble lanes into the byte lanes, flushing the
// byte lanes first if the incoming weight could overflow a byte counter.
func (c *BitCounter) foldNibbles() {
	if c.pendingNib == 0 {
		return
	}
	if c.pendingByte+c.pendingNib > 255 {
		c.flushBytes()
	}
	for j := 0; j < 4; j++ {
		lane, lo, hi := c.nib[j], c.byteLo[j], c.byteHi[j]
		for w := 0; w < c.words; w++ {
			v := lane[w]
			if v == 0 {
				continue
			}
			lane[w] = 0
			lo[w] += v & byteLaneMask
			hi[w] += (v >> 4) & byteLaneMask
		}
	}
	c.pendingByte += c.pendingNib
	c.pendingNib = 0
}

// flushBytes drains the byte lanes into the int32 counters. Byte k of
// byteLo[j][w] counts component 64w + 8k + j; byteHi[j][w] counts
// component 64w + 8k + 4 + j. Full words unpack all eight bytes
// unconditionally (branchless, the lanes are dense by flush time); only a
// partial final word pays per-component range checks.
func (c *BitCounter) flushBytes() {
	if c.pendingByte == 0 {
		return
	}
	c.countsDirty = true
	full := c.words
	if c.d&63 != 0 {
		full--
	}
	counts := c.counts
	for j := 0; j < 4; j++ {
		for half, lane := range [2][]uint64{c.byteLo[j], c.byteHi[j]} {
			off := j + 4*half
			for w := 0; w < full; w++ {
				v := lane[w]
				if v == 0 {
					continue
				}
				lane[w] = 0
				dst := counts[w<<6+off:]
				dst[0] += int32(v & 0xFF)
				dst[8] += int32((v >> 8) & 0xFF)
				dst[16] += int32((v >> 16) & 0xFF)
				dst[24] += int32((v >> 24) & 0xFF)
				dst[32] += int32((v >> 32) & 0xFF)
				dst[40] += int32((v >> 40) & 0xFF)
				dst[48] += int32((v >> 48) & 0xFF)
				dst[56] += int32(v >> 56)
			}
			if full < c.words {
				w := full
				v := lane[w]
				lane[w] = 0
				base := w << 6
				for k := 0; v != 0; k++ {
					if bv := v & 0xFF; bv != 0 {
						dim := base + k<<3 + off
						if dim < c.d {
							counts[dim] += int32(bv)
						}
					}
					v >>= 8
				}
			}
		}
	}
	c.pendingByte = 0
}

// flush drains every intermediate tier into the int32 counters: parked
// carry-save planes first, then the nibble and byte lanes. All observers
// — CountsInto, CountAt, Popcount, the sign fallbacks — share this one
// pre-condition path, so none of them can observe weight still parked in
// the carry-save planes by a batch or vector drain entry point.
func (c *BitCounter) flush() {
	if c.csaParked {
		c.drainCarrySave()
	}
	c.foldNibbles()
	c.flushBytes()
}

// CountAt returns the accumulated count of component i.
func (c *BitCounter) CountAt(i int) int {
	if i < 0 || i >= c.d {
		panic(fmt.Sprintf("hdc: component %d out of range", i))
	}
	c.flush()
	return int(c.counts[i])
}

// CountsInto flushes the intermediate lanes and copies the per-component
// counts into dst, which must have length d; returns dst. The copy keeps
// the counter's carry state private — the former Counts accessor handed
// out the internal slice, and a caller writing through it would have
// silently corrupted every later fold.
func (c *BitCounter) CountsInto(dst []int32) []int32 {
	if len(dst) != c.d {
		panic(fmt.Sprintf("hdc: destination length %d, want %d", len(dst), c.d))
	}
	c.flush()
	copy(dst, c.counts)
	return dst
}

// SignBipolar collapses the counter to a bipolar hypervector by majority:
// component i is +1 when more than half of the n added vectors had bit i
// set, -1 when fewer, and tie[i] on an exact tie. This matches
// Accumulator.Sign under the bit↔bipolar mapping exactly.
func (c *BitCounter) SignBipolar(tie *Bipolar) *Bipolar {
	return c.SignBipolarInto(tie, &Bipolar{comps: make([]int8, c.d)})
}

// SignBipolarInto is SignBipolar writing the result into dst, which must
// have the counter's dimension; every component is overwritten. It
// performs no heap allocations, the property the scratch-reuse encoding
// path depends on. Returns dst.
func (c *BitCounter) SignBipolarInto(tie, dst *Bipolar) *Bipolar {
	mustSameDim(c.d, tie.Dim())
	mustSameDim(c.d, dst.Dim())
	c.flush()
	out := dst.comps
	ties := tie.comps
	// The comparison runs in 64-bit: 2*cnt would wrap int32 once n
	// reached 2³⁰, silently inverting the majority of saturated
	// components. The select is branchless — count-vs-n is a coin flip
	// per component, so data-dependent branches would mispredict half the
	// time across all d components.
	n := int64(c.n)
	for i, cnt := range c.counts {
		twice := 2 * int64(cnt)
		gt := int8(uint64(n-twice) >> 63) // 1 iff twice > n
		lt := int8(uint64(twice-n) >> 63) // 1 iff twice < n
		out[i] = gt - lt + (1-(gt|lt))*ties[i]
	}
	return dst
}

// SignBinary collapses the counter to a bit-packed binary hypervector by
// the same majority rule as SignBipolar: bit i is set when more than half
// of the n added vectors had it set, cleared when fewer, and copied from
// tie on an exact tie. SignBinary(tiePacked) == SignBipolar(tie).PackBinary()
// bit for bit, which is what lets the packed encoder skip the int8 detour
// entirely.
func (c *BitCounter) SignBinary(tie *Binary) *Binary {
	return c.SignBinaryInto(tie, NewBinary(c.d))
}

// SignBinaryInto is SignBinary writing the result into dst, which must
// have the counter's dimension; every word is overwritten. It performs no
// heap allocations, the property the scratch-reuse encoding path depends
// on. Each output word is assembled before being stored, so dst may alias
// tie. Returns dst.
func (c *BitCounter) SignBinaryInto(tie, dst *Binary) *Binary {
	// tie may be wider than the counter (prefix slicing): tie bits land in
	// the output only on exact ties, which cannot occur past dimension d
	// (those components hold zero count, and 0 == n/2 only for n == 0).
	// dst is canonical output and must match exactly.
	c.checkOperand(tie.d)
	if c.d != dst.d {
		panic(fmt.Sprintf("hdc: destination dimension %d, want %d", dst.d, c.d))
	}
	if c.signBinarySWAR(tie, dst) {
		return dst
	}
	c.flush()
	n := int64(c.n) // 64-bit majority comparison, as in SignBipolarInto
	for w := 0; w < c.words; w++ {
		var out uint64
		tieW := tie.words[w]
		base := w << 6
		end := c.d - base
		if end > 64 {
			end = 64
		}
		// Branchless select, same rationale as SignBipolarInto.
		for b, cnt := range c.counts[base : base+end] {
			twice := 2 * int64(cnt)
			gt := (uint64(n-twice) >> 63) // 1 iff twice > n
			lt := (uint64(twice-n) >> 63) // 1 iff twice < n
			bit := gt | (1 &^ (gt | lt) & (tieW >> uint(b)))
			out |= bit << uint(b)
		}
		dst.words[w] = out
	}
	return dst
}

// signBinarySWAR is the fast majority path: when every per-component
// count still lives in the byte lanes (nothing has been flushed to the
// int32 tier) and n fits in 7 bits, the majority compare runs eight
// components per word operation directly on the byte lanes — no flush,
// no per-component loop. Reports whether it handled the sign.
//
// The byte arithmetic is exact because every byte operand stays ≤ 127:
// per-byte sums with a bias < 128 cannot carry into the neighboring byte.
func (c *BitCounter) signBinarySWAR(tie, dst *Binary) bool {
	if c.csaParked {
		// Same drain pre-condition as flush: weight parked in the
		// carry-save planes moves to the lane tiers before any fast-path
		// eligibility is judged.
		c.drainCarrySave()
	}
	if c.countsDirty || c.n > 127 {
		return false
	}
	c.foldNibbles() // move all remaining weight into the byte lanes
	if c.countsDirty {
		// The fold's conservative byte-weight accounting can trigger a
		// flush even though the true per-byte weight (≤ n ≤ 127) fits; if
		// it did, part of the weight now lives in the int32 tier.
		return false
	}
	n := uint64(c.n)
	// bit set  ⟺ 2v > n ⟺ v ≥ n/2+1:  (v + bias) has its high bit set.
	bias := (128 - (n/2 + 1)) * byteStride
	if n%2 == 1 {
		// Odd n cannot tie, so the majority is just the biased-add high
		// bit — no tie word loads, no zero-byte tests.
		for w := 0; w < c.words; w++ {
			var out uint64
			for j := 0; j < 4; j++ {
				lo := c.byteLo[j][w]
				hi := c.byteHi[j][w]
				out |= (((lo + bias) & byteHighBits) >> 7) << uint(j)
				out |= (((hi + bias) & byteHighBits) >> 7) << uint(j+4)
			}
			dst.words[w] = out
		}
		return true
	}
	// Even n from here on. tie ⟺ 2v = n, i.e. v = n/2.
	half := (n / 2) * byteStride
	for w := 0; w < c.words; w++ {
		var out uint64
		tieW := tie.words[w]
		for j := 0; j < 4; j++ {
			lo := c.byteLo[j][w] // byte k counts component 64w + 8k + j
			hi := c.byteHi[j][w] // byte k counts component 64w + 8k + 4 + j
			out |= (((lo + bias) & byteHighBits) >> 7) << uint(j)
			out |= (((hi + bias) & byteHighBits) >> 7) << uint(j+4)
			// Zero-byte test of v ^ half: with all bytes ≤ 127, adding
			// 0x7F saturates the high bit exactly when the byte is nonzero.
			eqLo := ^(((lo ^ half) + 0x7F*byteStride) & byteHighBits) & byteHighBits
			eqHi := ^(((hi ^ half) + 0x7F*byteStride) & byteHighBits) & byteHighBits
			out |= ((eqLo >> 7) << uint(j)) & tieW
			out |= ((eqHi >> 7) << uint(j+4)) & tieW
		}
		dst.words[w] = out
	}
	return true
}

// Reset clears the counter. Each storage tier is cleared only when the
// counter's own accounting says it can hold weight — pendingNib/
// pendingByte conservatively over-approximate lane occupancy and
// countsDirty tracks the int32 tier — so resetting after a small
// accumulation signed through the SWAR fast path touches a few KB of
// lanes instead of memclearing the d-sized count array. This is what
// keeps per-graph Reset cheap on the batch encoding path, where one
// counter is reset once per graph.
func (c *BitCounter) Reset() {
	if c.pendingNib > 0 {
		for j := range c.nib {
			clear(c.nib[j])
		}
	}
	if c.pendingByte > 0 {
		for j := range c.byteLo {
			clear(c.byteLo[j])
			clear(c.byteHi[j])
		}
	}
	if c.countsDirty {
		clear(c.counts)
	}
	// The carry-save planes are zero between calls (every batch entry
	// point drains them and the small-sign kernels consume them before
	// returning) and csaParked tracks exactly the windows where they are
	// not, so they only need clearing when a drain was skipped.
	if c.csaParked {
		clear(c.csaOnes)
		clear(c.csaTwos)
		clear(c.csaFours)
		clear(c.csaEights)
		clear(c.csaSixteens)
		clear(c.csaThirtyTwos)
		c.csaParked = false
	}
	c.pendingNib = 0
	c.pendingByte = 0
	c.countsDirty = false
	c.n = 0
}

// Popcount returns the total number of set bits accumulated (the sum of
// all per-component counts), useful as a cheap checksum in tests.
func (c *BitCounter) Popcount() int {
	c.flush()
	total := 0
	for _, v := range c.counts {
		total += int(v)
	}
	return total
}
