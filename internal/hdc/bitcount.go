package hdc

import (
	"fmt"
	"math"
)

// BitCounter counts, per component, how many of the added binary
// hypervectors had that bit set — the quantity majority bundling needs —
// without unpacking bits to integers. Weight moves through three tiers:
//
//   - Carry-save planes. AddXorKeys reduces groups of eight vectors per
//     64-bit word through a Harley–Seal cascade of carry-save
//     adders into persistent bit-sliced partial sums of weight 1/2/4/8.
//     Only the weight-16 overflow of the top plane leaves it, so a block
//     costs one lane update per ~16 vectors instead of one per vector.
//     Each call drains the planes before it returns.
//   - Byte lanes. The overflow and the drain land in byte-wide SWAR
//     counters, eight components per word.
//   - int32 counts. The byte lanes flush into them before any byte can
//     pass 255. They are allocated at the first flush: a counter that
//     only ever signs bundles of up to 127 operands, or folds up to 255
//     units of weight, never holds them.
//
// While every count is still in the byte lanes, majority signs and the
// fold into class sums read them there (SignBinaryInto's SWAR path,
// Accumulator.AddCounter), so most bundles never touch the int32 tier.
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
	d      int
	words  int
	stride int // SlabStride(d): the padded word count of planes and lanes
	// byteLo[j]/byteHi[j]: byte counters. Byte k of byteLo[j][w] counts
	// component 64w + 8k + j and byte k of byteHi[j][w] component
	// 64w + 8k + 4 + j, so the per-component flush runs every ~255 units
	// of weight instead of once per vector.
	byteLo, byteHi [4][]uint64
	// csaOnes/csaTwos/csaFours/csaEights: bit-sliced carry-save partial
	// sums of weight 1, 2, 4 and 8 used by the blocked front end. They are
	// nonzero only while a batch call is running; the call drains them
	// into the byte lanes before returning. All four planes, like the
	// byte lanes, are views into one contiguous slab, one stride apart:
	// the vector kernels sweep every word of the stride, and the padding
	// words past d/64, fed only the zero padding of slab rows, stay zero.
	csaOnes, csaTwos, csaFours, csaEights []uint64
	// csaParked is set while the carry-save planes hold weight that has
	// not yet reached a counter tier (mid batch call). Every observer
	// funnels through flush or inBytes, which drain parked planes first,
	// so neither the sign paths nor AddCounter can ever see weight parked
	// below the lane tiers, whichever kernel tier (portable or vector)
	// parked it.
	csaParked bool
	// kargs is the pre-resolved argument block handed to the vector
	// kernels; the plane and lane pointers and the word count are filled
	// once at construction, the slab and keys per block.
	kargs csaArgs
	// sargs is the small-sign kernels' argument block and key table,
	// filled per SignXnorKeysSmallInto call.
	sargs smallArgs
	// pendingByte bounds, per component, the weight in the byte lanes
	// plus the weight parked in the carry-save planes since the last
	// flush: it is at most 255, so no byte lane can overflow.
	pendingByte int
	// countsDirty records whether the int32 counters hold any weight; when
	// they do not and n fits a byte, Sign* can run its SWAR fast path
	// straight off the byte lanes.
	countsDirty bool
	// counts is the int32 tier, nil until the first flush.
	counts []int32
	n      int
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
	w, st := (d+63)/64, SlabStride(d)
	c := &BitCounter{d: d, words: w, stride: st}
	// The byte lanes and carry-save planes are views into contiguous
	// slabs: the vector kernels address all of them from the base
	// pointers below, and one allocation each keeps them cache-adjacent.
	// Each view covers the d/64 words of a stride-long row.
	row := func(slab []uint64, i int) []uint64 { return slab[i*st : i*st+w : i*st+w] }
	laneSlab := make([]uint64, 8*st)
	for j := range c.byteLo {
		c.byteLo[j] = row(laneSlab, j)
		c.byteHi[j] = row(laneSlab, 4+j)
	}
	csaSlab := make([]uint64, 4*st)
	c.csaOnes = row(csaSlab, 0)
	c.csaTwos = row(csaSlab, 1)
	c.csaFours = row(csaSlab, 2)
	c.csaEights = row(csaSlab, 3)
	c.kargs.ones = &c.csaOnes[0]
	c.kargs.twos = &c.csaTwos[0]
	c.kargs.fours = &c.csaFours[0]
	c.kargs.eights = &c.csaEights[0]
	c.kargs.l0, c.kargs.l1, c.kargs.l2, c.kargs.l3 = &c.byteLo[0][0], &c.byteLo[1][0], &c.byteLo[2][0], &c.byteLo[3][0]
	c.kargs.h0, c.kargs.h1, c.kargs.h2, c.kargs.h3 = &c.byteHi[0][0], &c.byteHi[1][0], &c.byteHi[2][0], &c.byteHi[3][0]
	c.kargs.n = int64(st)
	return c
}

// SlabStride returns the words per row of a slab of d-dimensional packed
// rows, the operand store of AddXorKeys and SignXnorKeysSmallInto: the
// ⌈d/64⌉ words of a row rounded up to a whole number of eight-word
// groups, so a vector kernel reads every row in full groups. A row's
// padding words and the bits of its last word past d must be zero.
func SlabStride(d int) int { return ((d+63)/64 + 7) &^ 7 }

// Key returns the operand key of the slab rows starting at word offsets
// a and b (multiples of the stride): their XOR. Key(0, 0) is a zero
// operand. Offsets must fit in 32 bits.
func Key(a, b int) uint64 { return uint64(a)<<32 | uint64(uint32(b)) }

// checkKeys panics unless slab is a whole number of rows of the
// counter's stride and every key's rows lie inside it, so that no kernel
// reads past the slab. Rows carry no dimension of their own, so this is
// the only check of a call's operands.
func (c *BitCounter) checkKeys(slab, keys []uint64) {
	if len(slab) == 0 || len(slab)%c.stride != 0 {
		panic(fmt.Sprintf("hdc: slab of %d words is not whole rows of stride %d", len(slab), c.stride))
	}
	var hi uint64
	for _, k := range keys {
		hi = max(hi, k>>32, k&0xFFFFFFFF)
	}
	if hi > uint64(len(slab)-c.stride) {
		panic(fmt.Sprintf("hdc: key row at word %d outside a slab of %d words", hi, len(slab)))
	}
}

// Dim returns the counter's dimensionality.
func (c *BitCounter) Dim() int { return c.d }

// Count returns the number of vectors added since the last Reset.
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

// checkDim panics unless a vector handed to the counter has its
// dimension.
func (c *BitCounter) checkDim(d int) {
	if d != c.d {
		panic(fmt.Sprintf("hdc: vector dimension %d, want %d", d, c.d))
	}
}

// csa is a 3:2 carry-save adder: it compresses three bit-sliced summands
// of equal weight into a same-weight sum slice and a double-weight carry
// slice.
func csa(a, b, cin uint64) (sum, carry uint64) {
	u := a ^ b
	return u ^ cin, (a & b) | (u & cin)
}

// AddXorKeys accumulates, for each key, the XOR of its two slab rows
// without materializing it — the packed GraphHD encoder's edge loop, where
// an edge hypervector is the XNOR of its endpoint vectors (SignXnorInto
// takes the majority of the complements), and its bundles of whole
// vectors, keyed against a zero row. Groups of eight keys are reduced per
// word by a Harley–Seal CSA cascade into the persistent weight-1/2/4/8
// planes, and only the weight-16 overflow of the top plane touches the
// byte lanes. A full block therefore costs one lane update per ~16 keys
// instead of one per key, and the inner loop is a single cache-friendly
// sweep over the words of the block's rows. A short final block is
// padded with zero keys, which flow through the CSA cascade without
// contributing to any count.
func (c *BitCounter) AddXorKeys(slab, keys []uint64) {
	c.checkKeys(slab, keys)
	c.checkAdds(len(keys))
	c.n += len(keys)
	kern := loadKernels()
	a := &c.kargs
	a.slab = &slab[0]
	for i := 0; i < len(keys); i += 8 {
		live := copy(a.keys[:], keys[i:])
		clear(a.keys[live:])
		c.addXorBlock8(kern, live, slab)
	}
	a.slab = nil // pin no slab between calls
	c.drainCarrySave()
}

// addXorBlock8 feeds the block of eight keys in kargs, of which the
// first live are real and the rest zero padding, through the carry-save
// cascade, overflowing weight 16 into the byte lanes: the vector kernel
// when one is installed, else the portable loop. Count accounting is the
// caller's.
func (c *BitCounter) addXorBlock8(kern *kernelTable, live int, slab []uint64) {
	// The block adds at most live units to any component's byte-lane
	// plus parked weight. Past 255 the lanes flush first; the planes keep
	// what they hold — at most 15, and at most what was booked — so that
	// much stays booked.
	if c.pendingByte+live > 255 {
		parked := 0
		if c.csaParked {
			parked = min(c.pendingByte, 15)
		}
		c.flushBytes()
		c.pendingByte = parked
	}
	c.pendingByte += live
	c.csaParked = true
	if kern.csaXorBlock != nil {
		kern.csaXorBlock(&c.kargs)
		return
	}
	c.csaXorBlock8(slab)
}

// csaXorBlock8 is the portable CSA cascade for the block of eight keys in
// kargs — the semantic source of truth the vector tiers must match bit
// for bit.
func (c *BitCounter) csaXorBlock8(slab []uint64) {
	nw := c.words
	var as, bs [8][]uint64
	for k, key := range c.kargs.keys {
		as[k], bs[k] = slab[key>>32:][:nw], slab[uint32(key):][:nw]
	}
	ones, twos, fours, eights := c.csaOnes, c.csaTwos, c.csaFours, c.csaEights
	a0, b0 := as[0], bs[0]
	a1, b1 := as[1], bs[1]
	a2, b2 := as[2], bs[2]
	a3, b3 := as[3], bs[3]
	a4, b4 := as[4], bs[4]
	a5, b5 := as[5], bs[5]
	a6, b6 := as[6], bs[6]
	a7, b7 := as[7], bs[7]
	l0, l1, l2, l3 := c.byteLo[0], c.byteLo[1], c.byteLo[2], c.byteLo[3]
	h0, h1, h2, h3 := c.byteHi[0], c.byteHi[1], c.byteHi[2], c.byteHi[3]
	for w := 0; w < nw; w++ {
		x0 := a0[w] ^ b0[w]
		x1 := a1[w] ^ b1[w]
		x2 := a2[w] ^ b2[w]
		x3 := a3[w] ^ b3[w]
		x4 := a4[w] ^ b4[w]
		x5 := a5[w] ^ b5[w]
		x6 := a6[w] ^ b6[w]
		x7 := a7[w] ^ b7[w]
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

// drainCarrySave feeds the parked weight-1/2/4/8 carry-save slices into
// the byte lanes and zeroes them, restoring the invariant that all
// accumulated weight lives in the byte/int32 tiers between calls. The
// parked weight was booked in pendingByte as it entered the planes, so
// the drain books nothing and never flushes.
func (c *BitCounter) drainCarrySave() {
	c.csaParked = false
	ones, twos, fours, eights := c.csaOnes, c.csaTwos, c.csaFours, c.csaEights
	for w := 0; w < c.words; w++ {
		o, t, f, e := ones[w], twos[w], fours[w], eights[w]
		if o|t|f|e == 0 {
			continue
		}
		ones[w], twos[w], fours[w], eights[w] = 0, 0, 0, 0
		for j := 0; j < 4; j++ {
			// Nibble k of v is the 4-bit count of component 4k + j; the
			// even nibbles go to byteLo[j], the odd ones to byteHi[j].
			v := ((o >> j) & nibbleLaneMask) + (((t>>j)&nibbleLaneMask)<<1 + (((f>>j)&nibbleLaneMask)<<2 + (((e >> j) & nibbleLaneMask) << 3)))
			c.byteLo[j][w] += v & byteLaneMask
			c.byteHi[j][w] += (v >> 4) & byteLaneMask
		}
	}
}

// flushBytes drains the byte lanes into the int32 counters, allocating
// them on the first call. Byte k of byteLo[j][w] counts component
// 64w + 8k + j; byteHi[j][w] counts component 64w + 8k + 4 + j. Full
// words unpack all eight bytes unconditionally (branchless, the lanes are
// dense by flush time); only a partial final word pays per-component
// range checks.
func (c *BitCounter) flushBytes() {
	if c.counts == nil {
		c.counts = make([]int32, c.d)
	}
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

// inBytes moves all accumulated weight into the byte lanes if it can and
// reports whether it is all there: nothing has reached the int32 tier, so
// each component's byte is its whole count (≤ 255).
func (c *BitCounter) inBytes() bool {
	if c.csaParked {
		// Same drain pre-condition as flush: weight parked in the
		// carry-save planes moves to the byte lanes before anything is
		// judged.
		c.drainCarrySave()
	}
	return !c.countsDirty
}

// foldBytesInto adds 2·countᵢ − n to sums[i] for every component, reading
// each count straight off the byte lanes, which the caller has checked
// hold all of them (inBytes). Byte k of byteLo[j][w] counts component
// 64w + 8k + j and byteHi[j][w] component 64w + 8k + 4 + j, as in
// flushBytes; a partial final word stops at d. The lanes keep their
// counts.
func (c *BitCounter) foldBytesInto(sums []int32) {
	n := int32(c.n)
	full := c.words
	if c.d&63 != 0 {
		full--
	}
	for w := 0; w < full; w++ {
		dst := (*[64]int32)(sums[w<<6:])
		for j := 0; j < 4; j++ {
			lo, hi := c.byteLo[j][w], c.byteHi[j][w]
			dst[j] += 2*int32(lo&0xFF) - n
			dst[8+j] += 2*int32((lo>>8)&0xFF) - n
			dst[16+j] += 2*int32((lo>>16)&0xFF) - n
			dst[24+j] += 2*int32((lo>>24)&0xFF) - n
			dst[32+j] += 2*int32((lo>>32)&0xFF) - n
			dst[40+j] += 2*int32((lo>>40)&0xFF) - n
			dst[48+j] += 2*int32((lo>>48)&0xFF) - n
			dst[56+j] += 2*int32(lo>>56) - n
			dst[4+j] += 2*int32(hi&0xFF) - n
			dst[12+j] += 2*int32((hi>>8)&0xFF) - n
			dst[20+j] += 2*int32((hi>>16)&0xFF) - n
			dst[28+j] += 2*int32((hi>>24)&0xFF) - n
			dst[36+j] += 2*int32((hi>>32)&0xFF) - n
			dst[44+j] += 2*int32((hi>>40)&0xFF) - n
			dst[52+j] += 2*int32((hi>>48)&0xFF) - n
			dst[60+j] += 2*int32(hi>>56) - n
		}
	}
	for w := full; w < c.words; w++ {
		base := w << 6
		for dim := base; dim < c.d; dim++ {
			r := dim - base // component r of the word: byte r>>3 of lane r&7
			lane := c.byteLo[r&3][w]
			if r&4 != 0 {
				lane = c.byteHi[r&3][w]
			}
			sums[dim] += 2*int32((lane>>(8*uint(r>>3)))&0xFF) - n
		}
	}
}

// flush drains every intermediate tier into the int32 counters: parked
// carry-save planes first, then the byte lanes. Every observer that reads
// the int32 counts — the sign fallbacks and AddCounter's int32 fold —
// shares this one pre-condition path, so none of them can observe weight
// still parked in the carry-save planes by a batch or vector drain entry
// point.
func (c *BitCounter) flush() {
	if c.csaParked {
		c.drainCarrySave()
	}
	c.flushBytes()
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

// SignBinaryInto collapses the counter into dst, a bit-packed binary
// hypervector, by the same majority rule as SignBipolar: bit i is set
// when more than half of the n added vectors had it set, cleared when
// fewer, and copied from tie on an exact tie. For a packed tie it equals
// SignBipolar(tie).PackBinary() bit for bit, which is what lets the packed
// encoder skip the int8 detour entirely. dst must have the counter's
// dimension; every word is overwritten. It performs no heap allocations,
// the property the scratch-reuse encoding path depends on. Each output
// word is assembled before being stored, so dst may alias tie. Returns
// dst.
func (c *BitCounter) SignBinaryInto(tie, dst *Binary) *Binary {
	c.checkDim(tie.d)
	c.checkDim(dst.d)
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

// SignXnorInto collapses the counter into dst by the majority of the
// complements of the added vectors — for AddXorKeys operands, of their
// XNORs: bit i is set when fewer than half of the n added vectors had it
// set, cleared when more, and copied from tie on an exact tie. That is
// the complement of SignBinaryInto under the complemented tie, which is
// how it is computed. dst may alias tie. Returns dst.
func (c *BitCounter) SignXnorInto(tie, dst *Binary) *Binary {
	c.checkDim(tie.d)
	c.checkDim(dst.d)
	for w, t := range tie.words {
		dst.words[w] = ^t
	}
	c.SignBinaryInto(dst, dst)
	for w, v := range dst.words {
		dst.words[w] = ^v
	}
	dst.words[c.words-1] &= c.tailMask()
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
	if c.n > 127 || !c.inBytes() {
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
// counter's own accounting says it can hold weight — pendingByte
// over-approximates byte-lane occupancy and countsDirty
// tracks the int32 tier — so resetting after a small
// accumulation signed through the SWAR fast path touches a few KB of
// lanes instead of memclearing the d-sized count array. This is what
// keeps per-graph Reset cheap on the batch encoding path, where one
// counter is reset once per graph.
func (c *BitCounter) Reset() {
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
	// point drains them before returning) and csaParked tracks exactly
	// the windows where they are not, so they only need clearing when a
	// drain was skipped.
	if c.csaParked {
		clear(c.csaOnes)
		clear(c.csaTwos)
		clear(c.csaFours)
		clear(c.csaEights)
		c.csaParked = false
	}
	c.pendingByte = 0
	c.countsDirty = false
	c.n = 0
}
