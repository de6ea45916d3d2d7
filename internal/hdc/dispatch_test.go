package hdc

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"
)

// forEachKernelTier runs fn as a subtest under every kernel tier this
// CPU supports, restoring the previously active tier afterwards. It is
// the backbone of the per-tier equivalence matrix: on an AVX-512 machine
// every wrapped test runs three times, each tier checked against the
// same scalar references.
func forEachKernelTier(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	prev := ActiveKernel()
	defer func() {
		if err := SetKernel(prev); err != nil {
			t.Fatalf("restoring kernel tier %s: %v", prev, err)
		}
	}()
	for _, tier := range SupportedKernels() {
		if err := SetKernel(tier); err != nil {
			t.Fatalf("SetKernel(%s): %v", tier, err)
		}
		t.Run(tier.String(), fn)
	}
}

// TestCsaArgsABIOffsets pins the byte offsets kernels_amd64.s hard-codes.
// If this test fails, the assembly is reading the wrong fields.
func TestCsaArgsABIOffsets(t *testing.T) {
	var a csaArgs
	offsets := map[string]uintptr{
		"keys":   unsafe.Offsetof(a.keys),
		"slab":   unsafe.Offsetof(a.slab),
		"ones":   unsafe.Offsetof(a.ones),
		"twos":   unsafe.Offsetof(a.twos),
		"fours":  unsafe.Offsetof(a.fours),
		"eights": unsafe.Offsetof(a.eights),
		"l0":     unsafe.Offsetof(a.l0),
		"l1":     unsafe.Offsetof(a.l1),
		"l2":     unsafe.Offsetof(a.l2),
		"l3":     unsafe.Offsetof(a.l3),
		"h0":     unsafe.Offsetof(a.h0),
		"h1":     unsafe.Offsetof(a.h1),
		"h2":     unsafe.Offsetof(a.h2),
		"h3":     unsafe.Offsetof(a.h3),
		"n":      unsafe.Offsetof(a.n),
	}
	want := map[string]uintptr{
		"keys": 0, "slab": 64,
		"ones": 72, "twos": 80, "fours": 88, "eights": 96,
		"l0": 104, "l1": 112, "l2": 120, "l3": 128,
		"h0": 136, "h1": 144, "h2": 152, "h3": 160,
		"n": 168,
	}
	for name, w := range want {
		if offsets[name] != w {
			t.Errorf("csaArgs.%s at offset %d, assembly expects %d", name, offsets[name], w)
		}
	}
	if len(a.keys) != 8 || unsafe.Sizeof(a) != 176 {
		t.Errorf("csaArgs holds %d keys in %d bytes, assembly expects 8 in 176", len(a.keys), unsafe.Sizeof(a))
	}
}

// TestSmallArgsABIOffsets pins the byte offsets the signSmall kernels in
// kernels_amd64.s hard-code, key table included: the kernels step 64
// bytes per eight-key block from the start of the block.
func TestSmallArgsABIOffsets(t *testing.T) {
	var a smallArgs
	offsets := map[string]uintptr{
		"keys":   unsafe.Offsetof(a.keys),
		"slab":   unsafe.Offsetof(a.slab),
		"tie":    unsafe.Offsetof(a.tie),
		"dst":    unsafe.Offsetof(a.dst),
		"cm":     unsafe.Offsetof(a.cm),
		"even":   unsafe.Offsetof(a.even),
		"blocks": unsafe.Offsetof(a.blocks),
		"n":      unsafe.Offsetof(a.n),
	}
	want := map[string]uintptr{
		"keys": 0, "slab": 512, "tie": 520, "dst": 528,
		"cm": 536, "even": 584, "blocks": 592, "n": 600,
	}
	for name, w := range want {
		if offsets[name] != w {
			t.Errorf("smallArgs.%s at offset %d, assembly expects %d", name, offsets[name], w)
		}
	}
	if len(a.keys) != 64 || len(a.cm) != 6 {
		t.Errorf("smallArgs table is %d keys with %d constants, assembly expects 64 and 6", len(a.keys), len(a.cm))
	}
}

// TestRankKeyABI pins the RankKey layout the rank-count kernel reads:
// 16-byte keys, the score first.
func TestRankKeyABI(t *testing.T) {
	var k RankKey
	if unsafe.Sizeof(k) != 16 || unsafe.Offsetof(k.Score) != 0 || unsafe.Offsetof(k.Tie) != 8 {
		t.Errorf("RankKey is %d bytes, score at %d, tie at %d; the kernel expects 16, 0, 8", unsafe.Sizeof(k), unsafe.Offsetof(k.Score), unsafe.Offsetof(k.Tie))
	}
}

// TestPageRankArgsABIOffsets pins the argument block the pageRank kernel
// reads from its argument frame (a_edges+0(FP) … a_dst+40(FP)), and the
// result after it at ret+48(FP).
func TestPageRankArgsABIOffsets(t *testing.T) {
	var a pageRankArgs
	offsets := map[string]uintptr{
		"edges":      unsafe.Offsetof(a.edges),
		"m":          unsafe.Offsetof(a.m),
		"n":          unsafe.Offsetof(a.n),
		"iterations": unsafe.Offsetof(a.iterations),
		"damping":    unsafe.Offsetof(a.damping),
		"dst":        unsafe.Offsetof(a.dst),
	}
	want := map[string]uintptr{
		"edges": 0, "m": 8, "n": 16, "iterations": 24, "damping": 32, "dst": 40,
	}
	for name, w := range want {
		if offsets[name] != w {
			t.Errorf("pageRankArgs.%s at offset %d, assembly expects %d", name, offsets[name], w)
		}
	}
	if unsafe.Sizeof(a) != 48 {
		t.Errorf("pageRankArgs is %d bytes, assembly expects the result at 48", unsafe.Sizeof(a))
	}
	if unsafe.Sizeof(*a.edges) != 8 {
		t.Errorf("an edge is %d bytes, the kernel steps 8", unsafe.Sizeof(*a.edges))
	}
}

func TestKernelTierString(t *testing.T) {
	cases := map[KernelTier]string{
		KernelPortable: "portable",
		KernelAVX2:     "avx2",
		KernelAVX512:   "avx512",
	}
	for tier, want := range cases {
		if got := tier.String(); got != want {
			t.Errorf("KernelTier(%d).String() = %q, want %q", tier, got, want)
		}
	}
	if got := KernelTier(99).String(); got != "kernel(99)" {
		t.Errorf("unknown tier String() = %q", got)
	}
}

func TestParseKernelTier(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want KernelTier
		ok   bool
	}{
		{"portable", KernelPortable, true},
		{"avx2", KernelAVX2, true},
		{"avx512", KernelAVX512, true},
		{" AVX2 ", KernelAVX2, true},
		{"AVX512", KernelAVX512, true},
		{"", KernelPortable, false},
		{"sse", KernelPortable, false},
	} {
		got, err := ParseKernelTier(tc.in)
		if (err == nil) != tc.ok {
			t.Errorf("ParseKernelTier(%q) err = %v, want ok=%v", tc.in, err, tc.ok)
			continue
		}
		if tc.ok && got != tc.want {
			t.Errorf("ParseKernelTier(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// TestClampKernelTier verifies degrade-don't-crash: a requested tier the
// CPU lacks resolves to the best supported one at or below it.
func TestClampKernelTier(t *testing.T) {
	portableOnly := []*kernelTable{portableKernels}
	if got := clampKernelTier(portableOnly, KernelAVX512); got.tier != KernelPortable {
		t.Errorf("avx512 on portable-only CPU clamped to %v", got.tier)
	}
	withAVX2 := []*kernelTable{portableKernels, {tier: KernelAVX2, lanes: 4}}
	if got := clampKernelTier(withAVX2, KernelAVX512); got.tier != KernelAVX2 {
		t.Errorf("avx512 on avx2-only CPU clamped to %v", got.tier)
	}
	if got := clampKernelTier(withAVX2, KernelPortable); got.tier != KernelPortable {
		t.Errorf("portable request resolved to %v", got.tier)
	}
}

func TestSupportedKernelsAndStatus(t *testing.T) {
	sup := SupportedKernels()
	if len(sup) == 0 || sup[0] != KernelPortable {
		t.Fatalf("SupportedKernels() = %v, want portable first", sup)
	}
	for i := 1; i < len(sup); i++ {
		if sup[i] <= sup[i-1] {
			t.Fatalf("SupportedKernels() not ascending: %v", sup)
		}
	}
	st := Kernels()
	if st.Active != ActiveKernel() {
		t.Errorf("status Active %v vs ActiveKernel %v", st.Active, ActiveKernel())
	}
	found := false
	for _, tier := range st.Supported {
		if tier == st.Active {
			found = true
		}
	}
	if !found {
		t.Errorf("active tier %v not in supported set %v", st.Active, st.Supported)
	}
	// CPU feature names, when present, are a comma list of avx* tokens.
	if st.CPUFeatures != "" {
		for _, feat := range strings.Split(st.CPUFeatures, ",") {
			if !strings.HasPrefix(feat, "avx") {
				t.Errorf("unexpected CPU feature token %q in %q", feat, st.CPUFeatures)
			}
		}
	}
}

// TestSetKernelUnsupported checks that asking for a tier above the best
// supported one fails without changing the active tier. Skipped on
// machines that support everything.
func TestSetKernelUnsupported(t *testing.T) {
	sup := SupportedKernels()
	if sup[len(sup)-1] >= KernelAVX512 {
		t.Skip("all tiers supported on this CPU")
	}
	prev := ActiveKernel()
	if err := SetKernel(KernelAVX512); err == nil {
		t.Fatal("SetKernel(avx512) succeeded on a CPU without AVX-512")
	}
	if ActiveKernel() != prev {
		t.Fatalf("failed SetKernel changed active tier to %v", ActiveKernel())
	}
}

// TestKernelDifferentialMatrix is the cross-tier equivalence matrix: for
// every supported vector tier, every batch entry point must be
// bit-identical to the portable oracle on the same inputs — across odd
// dimensions, tail-mask words, lane-misaligned word counts, and weights
// crossing the weight-16 overflow boundary. The 64·k and 64·k − 1 rows
// (k = 9…16) give every word count mod 8 after a full group, each with
// and without a masked tail word, so the AVX-512 opmask final iteration
// is compared at every remainder; 10,000 and 10,007 are the paper's
// width and a prime near it.
//
// The small sign runs at every key count from 1 to MaxSmallSign, so
// every padded final block, both tie parities and counts across the
// weight-16 and weight-32 overflows, on a counter of width d with dst
// aliasing tie. Its keys index one slab of 40 random rows and a zero
// row: they name the slab's last row, and some are the zero key, the
// padding key. The portable results must equal the naive per-bit
// complement majority.
func TestKernelDifferentialMatrix(t *testing.T) {
	prev := ActiveKernel()
	defer SetKernel(prev)
	dims := []int{1, 3, 63, 64, 65, 127, 128, 129, 191, 192, 255, 256, 257, 320, 448, 449, 511, 512, 513, 1000, 10000, 10007}
	for k := 9; k <= 16; k++ {
		dims = append(dims, 64*k-1, 64*k)
	}
	type result struct {
		counts []int32
		sign   *Binary
		small  []*Binary // small[m-1]: m pairs on a counter of width d, dst aliasing tie
		hams   []int
	}
	run := func(d int, ref bool) result {
		rng := NewRNG(uint64(d) * 7919)
		c := NewBitCounter(d)
		// 24 + 29 pairs: full and zero-padded blocks through the CSA
		// front end, crossing the weight-16 overflow (s16) boundary in
		// many components.
		addPairs(c, randomPairs(d, 24, rng))
		addPairs(c, randomPairs(d, 29, rng))
		counts := c.CountsInto(make([]int32, d))
		tie := RandomBinary(d, rng)
		sign := c.SignBinary(tie)

		slab, rows := randomSlab(d, 40, rng)
		keys := make([]uint64, MaxSmallSign)
		st := SlabStride(d)
		for k := range keys {
			switch k % 9 {
			case 0:
				keys[k] = Key(rng.Intn(len(rows))*st, len(rows)*st) // a row against the zero row
			case 4:
				keys[k] = 0 // the padding key
			default:
				keys[k] = Key(rng.Intn(len(rows))*st, rng.Intn(len(rows))*st)
			}
		}
		row := func(off uint64) *Binary { return BinaryRows(d, slab[off:], 1)[0] }
		sc := NewBitCounter(d)
		naive := newNaiveCounter(d)
		var small []*Binary
		for m := 1; m <= MaxSmallSign; m++ {
			tie := RandomBinary(d, rng)
			out := tie.Clone()
			small = append(small, sc.SignXnorKeysSmallInto(slab, keys[:m], out, out))
			if ref {
				k := keys[m-1]
				naive.addPairs([]xorPair{{row(k >> 32), row(k & 0xFFFFFFFF)}})
				naive.checkXnorSign(t, fmt.Sprintf("d=%d m=%d portable small sign", d, m), tie, small[m-1])
			}
		}

		// Hamming over packed vectors.
		q := RandomBinary(d, rng)
		classes := make([]*Binary, 4)
		for i := range classes {
			classes[i] = RandomBinary(d, rng)
		}
		pm, err := NewPackedMemory(classes)
		if err != nil {
			panic(err)
		}
		return result{counts, sign, small, pm.Hammings(q)}
	}
	for _, d := range dims {
		if err := SetKernel(KernelPortable); err != nil {
			t.Fatal(err)
		}
		want := run(d, true)
		for _, tier := range SupportedKernels() {
			if tier == KernelPortable {
				continue
			}
			if err := SetKernel(tier); err != nil {
				t.Fatal(err)
			}
			got := run(d, false)
			for i := range want.counts {
				if got.counts[i] != want.counts[i] {
					t.Fatalf("d=%d tier=%s: count[%d] = %d, portable %d", d, tier, i, got.counts[i], want.counts[i])
				}
			}
			if !got.sign.Equal(want.sign) {
				t.Fatalf("d=%d tier=%s: SignBinary differs from portable", d, tier)
			}
			for i := range want.small {
				if !got.small[i].Equal(want.small[i]) {
					t.Fatalf("d=%d tier=%s m=%d: SignXnorKeysSmallInto differs from portable", d, tier, i+1)
				}
			}
			for i := range want.hams {
				if got.hams[i] != want.hams[i] {
					t.Fatalf("d=%d tier=%s: Hamming[%d] = %d, portable %d", d, tier, i, got.hams[i], want.hams[i])
				}
			}
		}
	}
}

// TestParkedCSAObservers pins the drain pre-condition audit: every
// observer must drain carry-save weight parked by a partially completed
// blocked add before reading, whichever kernel tier parked it. The planes
// are artificially left parked by calling the block cascade directly
// (the public entry points drain on exit; a vectorized drain that misses
// the parked check would observe stale lane state). The observers are
// the program's — SignBinaryInto (off the byte lanes, n ≤ 127),
// SignBipolarInto (through flush), AddCounter (off the byte lanes) and
// Reset — and the test-only count reads.
func TestParkedCSAObservers(t *testing.T) {
	forEachKernelTier(t, func(t *testing.T) {
		const d = 300
		rng := NewRNG(77)
		pairs := randomPairs(d, 8, rng)
		slab, keys := pairKeys(pairs)
		mk := func() *BitCounter {
			c := NewBitCounter(d)
			copy(c.kargs.keys[:], keys)
			c.kargs.slab = &slab[0]
			c.n += 8
			c.addXorBlock8(loadKernels(), 8, slab)
			if !c.csaParked {
				t.Fatal("addXorBlock8 did not park the carry-save planes")
			}
			return c
		}
		ref := newNaiveCounter(d)
		ref.addPairs(pairs)

		c := mk()
		for i := 0; i < d; i += 37 {
			if got := c.CountAt(i); int64(got) != ref.counts[i] {
				t.Fatalf("CountAt(%d) = %d with parked planes, want %d", i, got, ref.counts[i])
			}
		}
		ref.check(t, "CountsInto with parked planes", mk())
		tie := RandomBinary(d, rng)
		ref.checkSign(t, "SignBinaryInto with parked planes", tie, mk().SignBinaryInto(tie, NewBinary(d)))
		tieB := tie.UnpackBipolar()
		if !mk().SignBipolarInto(tieB, NewBipolar(d)).PackBinary().Equal(ref.sign(tie)) {
			t.Fatal("SignBipolarInto differs with parked planes")
		}
		acc := NewAccumulator(d)
		acc.AddCounter(mk())
		for i, cnt := range ref.counts {
			if want := 2*cnt - int64(ref.n); int64(acc.Sum(i)) != want {
				t.Fatalf("AddCounter sum %d = %d with parked planes, want %d", i, acc.Sum(i), want)
			}
		}
		// Reset with parked planes must clear them.
		c = mk()
		c.Reset()
		probe := randomPairs(d, 9, rng)
		addPairs(c, probe)
		ref.reset()
		ref.addPairs(probe)
		ref.check(t, "post-reset", c)
	})
}

// BenchmarkAddXorKeys measures the CSA front end per kernel tier on the
// serving shape (d=10000, 64 edges).
func BenchmarkAddXorKeys(b *testing.B) {
	rng := NewRNG(1)
	const d, edges = 10000, 64
	slab, keys := pairKeys(randomPairs(d, edges, rng))
	prev := ActiveKernel()
	defer SetKernel(prev)
	for _, tier := range SupportedKernels() {
		b.Run(tier.String(), func(b *testing.B) {
			if err := SetKernel(tier); err != nil {
				b.Fatal(err)
			}
			c := NewBitCounter(d)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Reset()
				c.AddXorKeys(slab, keys)
			}
		})
	}
}

// BenchmarkHammingPacked measures the packed query loop per kernel tier
// on the serving shape (d=10000, 8 classes).
func BenchmarkHammingPacked(b *testing.B) {
	rng := NewRNG(3)
	const d, k = 10000, 8
	classes := make([]*Binary, k)
	for i := range classes {
		classes[i] = RandomBinary(d, rng)
	}
	pm, err := NewPackedMemory(classes)
	if err != nil {
		b.Fatal(err)
	}
	q := RandomBinary(d, rng)
	prev := ActiveKernel()
	defer SetKernel(prev)
	for _, tier := range SupportedKernels() {
		b.Run(tier.String(), func(b *testing.B) {
			if err := SetKernel(tier); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pm.Classify(q)
			}
		})
	}
}
