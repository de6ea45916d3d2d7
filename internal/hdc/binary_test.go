package hdc

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewBinaryZero(t *testing.T) {
	b := NewBinary(130)
	for i := 0; i < 130; i++ {
		if b.Bit(i) != 0 {
			t.Fatalf("bit %d set in zero vector", i)
		}
	}
}

func TestRandomBinaryTailMasked(t *testing.T) {
	b := RandomBinary(70, NewRNG(1))
	if b.words[len(b.words)-1]>>6 != 0 {
		t.Fatal("tail bits beyond dimension are set")
	}
}

// TestFillRandomMatchesRandomBipolar: filling a used slab row in place
// gives RandomBipolar's vector for the same generator state, packed,
// without allocating, and leaves the row's padding words alone.
func TestFillRandomMatchesRandomBipolar(t *testing.T) {
	for _, d := range []int{1, 64, 70, 150, 256, 1000, 10000} { // 1, 1, 2, 3, 4, 16 and 157 words
		row := make([]uint64, SlabStride(d))
		for i := range row {
			row[i] = ^uint64(0) // stale contents must not survive
		}
		FillRandomRow(row, d, NewRNG(uint64(d)))
		b := BinaryRows(d, row, 1)[0]
		if !b.Equal(RandomBipolar(d, NewRNG(uint64(d))).PackBinary()) {
			t.Fatalf("d=%d: FillRandomRow differs from RandomBipolar", d)
		}
		for i := len(b.words); i < len(row); i++ {
			if row[i] != ^uint64(0) {
				t.Fatalf("d=%d: FillRandomRow wrote padding word %d", d, i)
			}
		}
		if allocs := testing.AllocsPerRun(10, func() { FillRandomRow(row, d, NewRNG(3)) }); allocs != 0 {
			t.Fatalf("d=%d: FillRandomRow allocated %v times per run, want 0", d, allocs)
		}
	}
}

func TestBinaryBindSelfInverse(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		v := RandomBinary(257, r)
		w := RandomBinary(257, r)
		return v.Bind(w).Bind(w).Equal(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestBinaryBindCommutative(t *testing.T) {
	r := NewRNG(2)
	v := RandomBinary(512, r)
	w := RandomBinary(512, r)
	if !v.Bind(w).Equal(w.Bind(v)) {
		t.Fatal("binary bind not commutative")
	}
}

func TestBinaryHammingSelfZero(t *testing.T) {
	v := RandomBinary(1000, NewRNG(3))
	if h := v.Hamming(v); h != 0 {
		t.Fatalf("self hamming = %d", h)
	}
	if c := v.Cosine(v); c != 1 {
		t.Fatalf("self cosine = %f", c)
	}
}

func TestBinaryRandomPairQuasiOrthogonal(t *testing.T) {
	r := NewRNG(4)
	v := RandomBinary(10000, r)
	w := RandomBinary(10000, r)
	if c := math.Abs(v.Cosine(w)); c > 0.05 {
		t.Fatalf("|cos| = %f between independent binary hypervectors", c)
	}
}

func TestBinaryPermuteRoundTrip(t *testing.T) {
	v := RandomBinary(100, NewRNG(5))
	for _, k := range []int{0, 1, 50, 99, 100, -7} {
		if !v.Permute(k).Permute(-k).Equal(v) {
			t.Fatalf("binary permute round trip failed for k=%d", k)
		}
	}
}

func TestBinaryPermutePreservesWeight(t *testing.T) {
	v := RandomBinary(333, NewRNG(6))
	ones := func(b *Binary) int {
		n := 0
		for i := 0; i < b.Dim(); i++ {
			n += b.Bit(i)
		}
		return n
	}
	if ones(v) != ones(v.Permute(17)) {
		t.Fatal("permutation changed population count")
	}
}

func TestBinaryBipolarCosineAgreement(t *testing.T) {
	// The binary Cosine must equal the bipolar Cosine of the unpacked
	// vectors for all pairs.
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		v := RandomBinary(300, r)
		w := RandomBinary(300, r)
		bc := v.Cosine(w)
		pc := v.UnpackBipolar().Cosine(w.UnpackBipolar())
		return math.Abs(bc-pc) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestBinaryUnpackPackRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		v := RandomBinary(129, NewRNG(seed))
		return v.UnpackBipolar().PackBinary().Equal(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestBinaryString(t *testing.T) {
	v := NewBinary(4)
	if got := v.String(); got != "Binary(d=4, 0000)" {
		t.Fatalf("String() = %q", got)
	}
}

func TestBinaryBundlePreservesSimilarity(t *testing.T) {
	r := NewRNG(8)
	vs := make([]*Binary, 5)
	for i := range vs {
		vs[i] = RandomBinary(10000, r)
	}
	bc := NewBitCounter(10000)
	addAll(bc, vs)
	maj := bc.SignBinaryInto(RandomBinary(10000, r), NewBinary(10000))
	for i, v := range vs {
		if c := maj.Cosine(v); c < 0.2 {
			t.Fatalf("cos(majority, v%d) = %f", i, c)
		}
	}
}
