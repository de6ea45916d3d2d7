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
		"x":      unsafe.Offsetof(a.x),
		"y":      unsafe.Offsetof(a.y),
		"inv":    unsafe.Offsetof(a.inv),
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
		"tail":   unsafe.Offsetof(a.tail),
	}
	want := map[string]uintptr{
		"x": 0, "y": 64, "inv": 128,
		"ones": 192, "twos": 200, "fours": 208, "eights": 216,
		"l0": 224, "l1": 232, "l2": 240, "l3": 248,
		"h0": 256, "h1": 264, "h2": 272, "h3": 280,
		"n": 288, "tail": 296,
	}
	for name, w := range want {
		if offsets[name] != w {
			t.Errorf("csaArgs.%s at offset %d, assembly expects %d", name, offsets[name], w)
		}
	}
}

// TestSmallArgsABIOffsets pins the byte offsets the signSmall kernels in
// kernels_amd64.s hard-code, operand table included: the kernels step
// 64 bytes per eight-pair block and reach an operand's B pointer and
// XNOR mask 512 and 1024 bytes past its A pointer.
func TestSmallArgsABIOffsets(t *testing.T) {
	var a smallArgs
	offsets := map[string]uintptr{
		"x":      unsafe.Offsetof(a.x),
		"y":      unsafe.Offsetof(a.y),
		"inv":    unsafe.Offsetof(a.inv),
		"tie":    unsafe.Offsetof(a.tie),
		"dst":    unsafe.Offsetof(a.dst),
		"cm":     unsafe.Offsetof(a.cm),
		"even":   unsafe.Offsetof(a.even),
		"blocks": unsafe.Offsetof(a.blocks),
		"n":      unsafe.Offsetof(a.n),
		"tail":   unsafe.Offsetof(a.tail),
	}
	want := map[string]uintptr{
		"x": 0, "y": 512, "inv": 1024,
		"tie": 1536, "dst": 1544, "cm": 1552, "even": 1600,
		"blocks": 1608, "n": 1616, "tail": 1624,
	}
	for name, w := range want {
		if offsets[name] != w {
			t.Errorf("smallArgs.%s at offset %d, assembly expects %d", name, offsets[name], w)
		}
	}
	if len(a.x) != 64 || len(a.y) != 64 || len(a.inv) != 64 || len(a.cm) != 6 {
		t.Errorf("smallArgs table is %d/%d/%d entries with %d constants, assembly expects 64/64/64 and 6", len(a.x), len(a.y), len(a.inv), len(a.cm))
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
// The small sign runs at every bundle size from 1 to MaxSmallSign, so
// every padded final block, both tie parities and counts across the
// weight-16 and weight-32 overflows, with mixed XOR/XNOR binds: once on
// a counter of width d with dst aliasing tie, and once on a wider counter
// narrowed to d by SetDim and fed operands and a tie of its full width.
// The portable results must equal the naive per-bit majority.
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
		prefix []*Binary // prefix[m-1]: m wider pairs on a counter narrowed to d
		hams   []int
	}
	run := func(d int, ref bool) result {
		rng := NewRNG(uint64(d) * 7919)
		c := NewBitCounter(d)
		// 24 + 29 pairs: full and zero-padded blocks through the CSA
		// front end, crossing the weight-16 overflow (s16) boundary in
		// many components.
		c.AddXorPairs(randomPairs(d, 24, rng))
		c.AddXorPairs(randomPairs(d, 29, rng))
		counts := c.CountsInto(make([]int32, d))
		tie := RandomBinary(d, rng)
		sign := c.SignBinary(tie)

		wide := d + 77
		pairs, widePairs := randomPairs(d, MaxSmallSign, rng), randomPairs(wide, MaxSmallSign, rng)
		sc, wc := NewBitCounter(d), NewBitCounter(wide)
		wc.SetDim(d)
		naive, naiveWide := newNaiveCounter(d), newNaiveCounter(d)
		var small, prefix []*Binary
		for m := 1; m <= MaxSmallSign; m++ {
			tie, wideTie := RandomBinary(d, rng), RandomBinary(wide, rng)
			out := tie.Clone()
			small = append(small, sc.SignXorPairsSmallInto(pairs[:m], out, out))
			prefix = append(prefix, wc.SignXorPairsSmallInto(widePairs[:m], wideTie, NewBinary(d)))
			if ref {
				naive.addPairs(pairs[m-1 : m])
				naive.checkSign(t, fmt.Sprintf("d=%d m=%d portable small sign", d, m), tie, small[m-1])
				naiveWide.addPairs(widePairs[m-1 : m])
				naiveWide.checkSign(t, fmt.Sprintf("d=%d m=%d portable prefix small sign", d, m), wideTie, prefix[m-1])
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
		return result{counts, sign, small, prefix, pm.Hammings(q)}
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
					t.Fatalf("d=%d tier=%s m=%d: SignXorPairsSmallInto differs from portable", d, tier, i+1)
				}
				if !got.prefix[i].Equal(want.prefix[i]) {
					t.Fatalf("d=%d tier=%s m=%d: SignXorPairsSmallInto on a narrowed counter differs from portable", d, tier, i+1)
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
		mk := func() *BitCounter {
			c := NewBitCounter(d)
			kern := loadKernels()
			var aws, bws [8][]uint64
			var vs [8]uint64
			for k := 0; k < 8; k++ {
				aws[k], bws[k], vs[k] = pairs[k].A.words, pairs[k].B.words, invMask(pairs[k].Invert)
			}
			c.n += 8
			c.addXorBlock8(kern, 8, &aws, &bws, &vs)
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
		c.AddXorPairs(probe)
		ref.reset()
		ref.addPairs(probe)
		ref.check(t, "post-reset", c)
	})
}

// BenchmarkAddXorPairs measures the CSA front end per kernel tier on the
// serving shape (d=10000, 64 edges).
func BenchmarkAddXorPairs(b *testing.B) {
	rng := NewRNG(1)
	const d, edges = 10000, 64
	pairs := make([]XorPair, edges)
	for i := range pairs {
		pairs[i] = XorPair{A: RandomBinary(d, rng), B: RandomBinary(d, rng), Invert: true}
	}
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
				c.AddXorPairs(pairs)
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
