package hdc

import (
	"math"
	"testing"
	"testing/quick"
)

const testDim = 1024

func TestNewBipolarAllOnes(t *testing.T) {
	v := NewBipolar(16)
	for i := 0; i < v.Dim(); i++ {
		if v.At(i) != 1 {
			t.Fatalf("component %d = %d, want +1", i, v.At(i))
		}
	}
}

func TestNewBipolarPanicsOnBadDim(t *testing.T) {
	for _, d := range []int{0, -1, -100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewBipolar(%d) did not panic", d)
				}
			}()
			NewBipolar(d)
		}()
	}
}

func TestRandomBipolarComponentsValid(t *testing.T) {
	rng := NewRNG(1)
	for _, d := range []int{1, 63, 64, 65, 1000, testDim} {
		v := RandomBipolar(d, rng)
		if v.Dim() != d {
			t.Fatalf("dim = %d, want %d", v.Dim(), d)
		}
		for i := 0; i < d; i++ {
			if c := v.At(i); c != 1 && c != -1 {
				t.Fatalf("d=%d component %d = %d", d, i, c)
			}
		}
	}
}

func TestRandomBipolarBalanced(t *testing.T) {
	// In d=10000 dimensions the component sum concentrates near 0 with
	// std sqrt(d) = 100; 5 sigma is a safe deterministic bound.
	v := RandomBipolar(10000, NewRNG(42))
	sum := 0
	for i := 0; i < v.Dim(); i++ {
		sum += int(v.At(i))
	}
	if sum > 500 || sum < -500 {
		t.Fatalf("component sum %d exceeds 5 sigma bound", sum)
	}
}

func TestRandomBipolarDeterministic(t *testing.T) {
	a := RandomBipolar(testDim, NewRNG(7))
	b := RandomBipolar(testDim, NewRNG(7))
	if !a.Equal(b) {
		t.Fatal("same seed produced different hypervectors")
	}
	c := RandomBipolar(testDim, NewRNG(8))
	if a.Equal(c) {
		t.Fatal("different seeds produced identical hypervectors")
	}
}

func TestFromComponents(t *testing.T) {
	v, err := FromComponents([]int8{1, -1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if v.Dim() != 4 || v.At(1) != -1 {
		t.Fatalf("unexpected vector %v", v)
	}
	if _, err := FromComponents([]int8{1, 0, 1}); err == nil {
		t.Fatal("expected error for component 0")
	}
	if _, err := FromComponents(nil); err == nil {
		t.Fatal("expected error for empty slice")
	}
}

func TestFromComponentsCopies(t *testing.T) {
	src := []int8{1, -1}
	v, err := FromComponents(src)
	if err != nil {
		t.Fatal(err)
	}
	src[0] = -1
	if v.At(0) != 1 {
		t.Fatal("FromComponents did not copy its input")
	}
}

func TestCloneIndependent(t *testing.T) {
	rng := NewRNG(3)
	v := RandomBipolar(64, rng)
	w := v.Clone()
	if !v.Equal(w) {
		t.Fatal("clone differs")
	}
	w.comps[0] = -w.comps[0]
	if v.comps[0] == w.comps[0] {
		t.Fatal("clone shares storage")
	}
}

func TestBindSelfInverse(t *testing.T) {
	rng := NewRNG(11)
	v := RandomBipolar(testDim, rng)
	w := RandomBipolar(testDim, rng)
	if got := v.Bind(w).Bind(w); !got.Equal(v) {
		t.Fatal("bind is not self-inverse")
	}
}

func TestBindCommutative(t *testing.T) {
	rng := NewRNG(12)
	v := RandomBipolar(testDim, rng)
	w := RandomBipolar(testDim, rng)
	if !v.Bind(w).Equal(w.Bind(v)) {
		t.Fatal("bind is not commutative")
	}
}

func TestBindAssociative(t *testing.T) {
	rng := NewRNG(13)
	a := RandomBipolar(testDim, rng)
	b := RandomBipolar(testDim, rng)
	c := RandomBipolar(testDim, rng)
	if !a.Bind(b).Bind(c).Equal(a.Bind(b.Bind(c))) {
		t.Fatal("bind is not associative")
	}
}

func TestBindQuasiOrthogonal(t *testing.T) {
	rng := NewRNG(14)
	v := RandomBipolar(10000, rng)
	w := RandomBipolar(10000, rng)
	bound := v.Bind(w)
	if s := math.Abs(bound.Cosine(v)); s > 0.05 {
		t.Fatalf("|cos(bind, v)| = %f, want near 0", s)
	}
	if s := math.Abs(bound.Cosine(w)); s > 0.05 {
		t.Fatalf("|cos(bind, w)| = %f, want near 0", s)
	}
}

func TestBindDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	NewBipolar(8).Bind(NewBipolar(9))
}

func TestPermuteRoundTrip(t *testing.T) {
	rng := NewRNG(15)
	v := RandomBipolar(100, rng)
	for _, k := range []int{0, 1, 7, 99, 100, 101, -3, -100} {
		if !v.Permute(k).Permute(-k).Equal(v) {
			t.Fatalf("permute round trip failed for k=%d", k)
		}
	}
}

func TestPermuteShiftsComponents(t *testing.T) {
	v, err := FromComponents([]int8{1, -1, 1, 1, -1})
	if err != nil {
		t.Fatal(err)
	}
	p := v.Permute(2)
	want := []int8{1, -1, 1, -1, 1}
	for i, w := range want {
		if p.At(i) != w {
			t.Fatalf("Permute(2)[%d] = %d, want %d", i, p.At(i), w)
		}
	}
}

func TestPermutePreservesQuasiOrthogonality(t *testing.T) {
	v := RandomBipolar(10000, NewRNG(16))
	if s := math.Abs(v.Permute(1).Cosine(v)); s > 0.05 {
		t.Fatalf("|cos(permute(v), v)| = %f, want near 0", s)
	}
}

func TestCosineSelfIsOne(t *testing.T) {
	v := RandomBipolar(testDim, NewRNG(17))
	if c := v.Cosine(v); c != 1 {
		t.Fatalf("cos(v, v) = %f", c)
	}
}

func TestCosineOppositeIsMinusOne(t *testing.T) {
	v := RandomBipolar(testDim, NewRNG(18))
	neg := v.Clone()
	for i := range neg.comps {
		neg.comps[i] = -neg.comps[i]
	}
	if c := v.Cosine(neg); c != -1 {
		t.Fatalf("cos(v, -v) = %f", c)
	}
}

func TestRandomPairQuasiOrthogonal(t *testing.T) {
	rng := NewRNG(19)
	v := RandomBipolar(10000, rng)
	w := RandomBipolar(10000, rng)
	if s := math.Abs(v.Cosine(w)); s > 0.05 {
		t.Fatalf("|cos| = %f between independent hypervectors", s)
	}
}

func TestHammingCosineConsistency(t *testing.T) {
	// For bipolar vectors cos = 1 - 2*hamming/d.
	rng := NewRNG(20)
	f := func(seed uint64) bool {
		r := NewRNG(seed ^ rng.Uint64())
		v := RandomBipolar(256, r)
		w := RandomBipolar(256, r)
		want := 1 - float64(2*float64(v.Hamming(w))/256)
		return math.Abs(v.Cosine(w)-want) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDotSymmetric(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		v := RandomBipolar(128, r)
		w := RandomBipolar(128, r)
		return v.Dot(w) == w.Dot(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPackBinaryRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		v := RandomBipolar(200, NewRNG(seed))
		return v.PackBinary().UnpackBipolar().Equal(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBipolarString(t *testing.T) {
	v := NewBipolar(3)
	if got := v.String(); got != "Bipolar(d=3, +++)" {
		t.Fatalf("String() = %q", got)
	}
	long := NewBipolar(100)
	if got := long.String(); got != "Bipolar(d=100, ++++++++...)" {
		t.Fatalf("String() = %q", got)
	}
}

func TestAccumulatorMajority(t *testing.T) {
	tie := NewBipolar(4)
	a, _ := FromComponents([]int8{1, 1, -1, -1})
	b, _ := FromComponents([]int8{1, -1, -1, 1})
	c, _ := FromComponents([]int8{1, -1, -1, -1})
	acc := NewAccumulator(4)
	for _, v := range []*Bipolar{a, b, c} {
		acc.Add(v)
	}
	got := acc.Sign(tie)
	want := []int8{1, -1, -1, -1}
	for i, w := range want {
		if got.At(i) != w {
			t.Fatalf("majority[%d] = %d, want %d", i, got.At(i), w)
		}
	}
	if acc.Count() != 3 {
		t.Fatalf("count = %d", acc.Count())
	}
}

func TestAccumulatorTieBreak(t *testing.T) {
	tie, _ := FromComponents([]int8{1, -1})
	a, _ := FromComponents([]int8{1, 1})
	b, _ := FromComponents([]int8{-1, -1})
	acc := NewAccumulator(2)
	acc.Add(a)
	acc.Add(b)
	got := acc.Sign(tie)
	if got.At(0) != 1 || got.At(1) != -1 {
		t.Fatalf("tie-break produced %v, want tie vector values", got)
	}
}

func TestAccumulatorAddSubCancel(t *testing.T) {
	rng := NewRNG(21)
	acc := NewAccumulator(64)
	v := RandomBipolar(64, rng)
	w := RandomBipolar(64, rng)
	acc.Add(v)
	acc.Add(w)
	acc.Sub(w)
	tie := RandomBipolar(64, rng)
	if !acc.Sign(tie).Equal(v) {
		t.Fatal("add/sub did not cancel")
	}
	if acc.Count() != 1 {
		t.Fatalf("count = %d, want 1", acc.Count())
	}
}

func TestAccumulatorAddWeighted(t *testing.T) {
	rng := NewRNG(22)
	v := RandomBipolar(32, rng)
	a1 := NewAccumulator(32)
	a2 := NewAccumulator(32)
	for i := 0; i < 5; i++ {
		a1.Add(v)
	}
	a2.AddWeighted(v, 5)
	for i := 0; i < 32; i++ {
		if a1.Sum(i) != a2.Sum(i) {
			t.Fatalf("sum mismatch at %d: %d vs %d", i, a1.Sum(i), a2.Sum(i))
		}
	}
}

func TestAccumulatorReset(t *testing.T) {
	acc := NewAccumulator(16)
	acc.Add(RandomBipolar(16, NewRNG(23)))
	acc.Reset()
	if acc.Count() != 0 {
		t.Fatalf("count after reset = %d", acc.Count())
	}
	for i := 0; i < 16; i++ {
		if acc.Sum(i) != 0 {
			t.Fatalf("sum[%d] = %d after reset", i, acc.Sum(i))
		}
	}
}

func TestAccumulatorClone(t *testing.T) {
	acc := NewAccumulator(8)
	acc.Add(RandomBipolar(8, NewRNG(24)))
	cl := acc.Clone()
	cl.Add(RandomBipolar(8, NewRNG(25)))
	if acc.Count() == cl.Count() {
		t.Fatal("clone shares state")
	}
}

func TestBundleSimilarToInputs(t *testing.T) {
	// The bundle of a few random hypervectors stays measurably similar to
	// each input — the defining property of bundling.
	rng := NewRNG(26)
	tie := RandomBipolar(10000, rng)
	vs := make([]*Bipolar, 5)
	for i := range vs {
		vs[i] = RandomBipolar(10000, rng)
	}
	b := Bundle(tie, vs...)
	for i, v := range vs {
		if c := b.Cosine(v); c < 0.2 {
			t.Fatalf("cos(bundle, v%d) = %f, want clearly positive", i, c)
		}
	}
	// ... and quasi-orthogonal to an unrelated vector.
	other := RandomBipolar(10000, rng)
	if c := math.Abs(b.Cosine(other)); c > 0.05 {
		t.Fatalf("cos(bundle, other) = %f, want near 0", c)
	}
}

func TestBundleEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic bundling zero vectors")
		}
	}()
	Bundle(NewBipolar(4))
}

func TestCosineToSumsMatchesSignWhenNoTies(t *testing.T) {
	// With an odd number of bundled vectors there are no ties; the cosine
	// to the integer sums must correlate strongly with the cosine to the
	// signed vector for the inputs themselves.
	rng := NewRNG(27)
	acc := NewAccumulator(10000)
	vs := make([]*Bipolar, 7)
	for i := range vs {
		vs[i] = RandomBipolar(10000, rng)
		acc.Add(vs[i])
	}
	tie := RandomBipolar(10000, rng)
	signed := acc.Sign(tie)
	for _, v := range vs {
		cs := acc.CosineToSums(v)
		cb := signed.Cosine(v)
		if cs <= 0 || cb <= 0 {
			t.Fatalf("expected positive similarity, got sums=%f bipolar=%f", cs, cb)
		}
	}
}

func TestCosineToSumsZeroAccumulator(t *testing.T) {
	acc := NewAccumulator(32)
	if c := acc.CosineToSums(RandomBipolar(32, NewRNG(1))); c != 0 {
		t.Fatalf("cosine to empty accumulator = %f, want 0", c)
	}
}
