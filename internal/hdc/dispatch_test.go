package hdc

import (
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
		"x":          unsafe.Offsetof(a.x),
		"y":          unsafe.Offsetof(a.y),
		"inv":        unsafe.Offsetof(a.inv),
		"ones":       unsafe.Offsetof(a.ones),
		"twos":       unsafe.Offsetof(a.twos),
		"fours":      unsafe.Offsetof(a.fours),
		"eights":     unsafe.Offsetof(a.eights),
		"sixteens":   unsafe.Offsetof(a.sixteens),
		"thirtytwos": unsafe.Offsetof(a.thirtytwos),
		"l0":         unsafe.Offsetof(a.l0),
		"l1":         unsafe.Offsetof(a.l1),
		"l2":         unsafe.Offsetof(a.l2),
		"l3":         unsafe.Offsetof(a.l3),
		"h0":         unsafe.Offsetof(a.h0),
		"h1":         unsafe.Offsetof(a.h1),
		"h2":         unsafe.Offsetof(a.h2),
		"h3":         unsafe.Offsetof(a.h3),
		"n":          unsafe.Offsetof(a.n),
	}
	want := map[string]uintptr{
		"x": 0, "y": 64, "inv": 128,
		"ones": 192, "twos": 200, "fours": 208, "eights": 216,
		"sixteens": 224, "thirtytwos": 232,
		"l0": 240, "l1": 248, "l2": 256, "l3": 264,
		"h0": 272, "h1": 280, "h2": 288, "h3": 296,
		"n": 304,
	}
	for name, w := range want {
		if offsets[name] != w {
			t.Errorf("csaArgs.%s at offset %d, assembly expects %d", name, offsets[name], w)
		}
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

// TestKernelDifferentialMatrix is the cross-tier equivalence matrix the
// tentpole promises: for every supported vector tier, every batch entry
// point must be bit-identical to the portable oracle on the same inputs —
// across odd dimensions, tail-mask words, lane-misaligned word counts,
// and weights crossing the weight-16 overflow boundary.
func TestKernelDifferentialMatrix(t *testing.T) {
	prev := ActiveKernel()
	defer SetKernel(prev)
	dims := []int{1, 3, 63, 64, 65, 127, 128, 129, 191, 192, 255, 256, 257, 320, 448, 449, 511, 512, 513, 1000}
	type result struct {
		counts []int32
		sign   *Binary
		smallX *Binary
		hams   []int
	}
	run := func(d int) result {
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
		// Small-sign kernels at n values straddling odd/even and the
		// weight-16/32 plane spills.
		sc := NewBitCounter(d)
		smallX := sc.SignXorPairsSmallInto(randomPairs(d, 33, rng), tie, NewBinary(d))
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
		return result{counts, sign, smallX, pm.Hammings(q)}
	}
	for _, d := range dims {
		if err := SetKernel(KernelPortable); err != nil {
			t.Fatal(err)
		}
		want := run(d)
		for _, tier := range SupportedKernels() {
			if tier == KernelPortable {
				continue
			}
			if err := SetKernel(tier); err != nil {
				t.Fatal(err)
			}
			got := run(d)
			for i := range want.counts {
				if got.counts[i] != want.counts[i] {
					t.Fatalf("d=%d tier=%s: count[%d] = %d, portable %d", d, tier, i, got.counts[i], want.counts[i])
				}
			}
			if !got.sign.Equal(want.sign) {
				t.Fatalf("d=%d tier=%s: SignBinary differs from portable", d, tier)
			}
			if !got.smallX.Equal(want.smallX) {
				t.Fatalf("d=%d tier=%s: SignXorPairsSmallInto differs from portable", d, tier)
			}
			for i := range want.hams {
				if got.hams[i] != want.hams[i] {
					t.Fatalf("d=%d tier=%s: Hamming[%d] = %d, portable %d", d, tier, i, got.hams[i], want.hams[i])
				}
			}
		}
	}
}

// TestParkedCSAObservers pins the flush pre-condition audit: every
// observer must drain carry-save weight parked by a partially completed
// blocked add before reading, whichever kernel tier parked it. The planes
// are artificially left parked by calling the block cascade directly
// (the public entry points drain on exit; a vectorized drain that misses
// the parked check would observe stale lane state).
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
			c.addXorBlock8(kern, &aws, &bws, &vs)
			if !c.csaParked {
				t.Fatal("addXorBlock8 did not park the carry-save planes")
			}
			return c
		}
		ref := NewBitCounter(d)
		for _, p := range pairs {
			ref.AddXor(p.A, p.B, p.Invert)
		}
		refCounts := ref.CountsInto(make([]int32, d))

		c := mk()
		for i := 0; i < d; i += 37 {
			if got := c.CountAt(i); got != int(refCounts[i]) {
				t.Fatalf("CountAt(%d) = %d with parked planes, want %d", i, got, refCounts[i])
			}
		}
		c = mk()
		if got, want := c.Popcount(), ref.Popcount(); got != want {
			t.Fatalf("Popcount = %d with parked planes, want %d", got, want)
		}
		c = mk()
		got := c.CountsInto(make([]int32, d))
		for i := range refCounts {
			if got[i] != refCounts[i] {
				t.Fatalf("CountsInto[%d] = %d with parked planes, want %d", i, got[i], refCounts[i])
			}
		}
		c = mk()
		tie := RandomBinary(d, rng)
		if !c.SignBinary(tie).Equal(ref.SignBinary(tie)) {
			t.Fatal("SignBinary differs with parked planes")
		}
		// Reset with parked planes must clear them.
		c = mk()
		c.Reset()
		probe := randomPairs(d, 9, rng)
		c.AddXorPairs(probe)
		ref2 := NewBitCounter(d)
		ref2.AddXorPairs(probe)
		assertSameCounts(t, "post-reset", c, ref2)
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
