package hdc

import (
	"testing"
	"testing/quick"
)

func TestSignBinaryMatchesSignBipolar(t *testing.T) {
	// SignBinaryInto(tiePacked) must equal SignBipolar(tie).PackBinary()
	// bit for bit, including exact ties (even add counts force many).
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		d := 100 + rng.Intn(200) // non-multiple of 64 exercises the tail
		tie := RandomBipolar(d, rng)
		a := NewBitCounter(d)
		b := NewBitCounter(d)
		vs := randomVectors(d, 2+rng.Intn(20), rng)
		addAll(a, vs)
		addAll(b, vs)
		return a.SignBinaryInto(tie.PackBinary(), NewBinary(d)).Equal(b.SignBipolar(tie).PackBinary())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSignBinaryDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	// A tie vector narrower than the counter cannot cover it and must
	// panic.
	NewBitCounter(65).SignBinaryInto(NewBinary(64), NewBinary(65))
}

// packedFixture trains a small bipolar-mode associative memory and returns
// it with the query vectors used against it.
func packedFixture(t *testing.T, k, d, n int, seed uint64) (*AssociativeMemory, []*Bipolar) {
	t.Helper()
	rng := NewRNG(seed)
	am := NewAssociativeMemory(k, d, rng.Uint64(), true)
	for i := 0; i < n; i++ {
		am.Learn(i%k, RandomBinary(d, rng))
	}
	queries := make([]*Bipolar, 20)
	for i := range queries {
		queries[i] = RandomBipolar(d, rng)
	}
	return am, queries
}

func TestPackedMemoryMatchesBipolarMode(t *testing.T) {
	am, queries := packedFixture(t, 3, 500, 30, 1)
	pm := am.Snapshot()
	if pm.NumClasses() != 3 || pm.Dim() != 500 {
		t.Fatalf("snapshot shape %d/%d", pm.NumClasses(), pm.Dim())
	}
	// The reference is the int8 path: the bipolar cosine against the
	// majority-voted class vectors, argmax with ties toward class 0.
	for qi, q := range queries {
		b := q.PackBinary()
		wantS := make([]float64, am.NumClasses())
		want := 0
		for c := range wantS {
			wantS[c] = q.Cosine(am.ClassVector(c))
			if wantS[c] > wantS[want] {
				want = c
			}
		}
		if got := pm.Classify(b); got != want {
			t.Fatalf("query %d: packed class %d, reference %d", qi, got, want)
		}
		if got := am.Classify(b); got != want {
			t.Fatalf("query %d: memory class %d, reference %d", qi, got, want)
		}
		gotS, amS := pm.Similarities(b), am.Similarities(b)
		for c := range wantS {
			if gotS[c] != wantS[c] || amS[c] != wantS[c] {
				t.Fatalf("query %d class %d: packed sim %v, memory %v, reference %v (must be exactly equal)",
					qi, c, gotS[c], amS[c], wantS[c])
			}
		}
	}
}

func TestPackedMemoryHammingsConsistent(t *testing.T) {
	am, queries := packedFixture(t, 4, 320, 40, 2)
	pm := am.Snapshot()
	for _, q := range queries {
		b := q.PackBinary()
		hs := pm.Hammings(b)
		for c, h := range hs {
			if want := pm.ClassVector(c).Hamming(b); h != want {
				t.Fatalf("class %d hamming %d, want %d", c, h, want)
			}
		}
	}
}

func TestClassifyPackedTracksLearning(t *testing.T) {
	// The cached snapshot behind ClassifyPacked must refresh after every
	// class update, staying equal to a fresh Snapshot.
	rng := NewRNG(3)
	am := NewAssociativeMemory(2, 256, rng.Uint64(), true)
	am.Learn(0, RandomBinary(256, rng))
	am.Learn(1, RandomBinary(256, rng))
	for i := 0; i < 10; i++ {
		b := RandomBinary(256, rng)
		if am.ClassifyPacked(b) != am.Snapshot().Classify(b) {
			t.Fatalf("step %d: cached snapshot stale", i)
		}
		am.Learn(i%2, b)
	}
	// Unlearn and AddCounter must invalidate too.
	v := RandomBinary(256, rng)
	am.ClassifyPacked(v) // populate cache
	am.Unlearn(0, v)
	if am.packed.Load() != nil {
		t.Fatal("Unlearn did not invalidate the packed snapshot")
	}
	am.ClassifyPacked(v)
	bc := NewBitCounter(256)
	addAll(bc, []*Binary{v, v})
	am.AddCounter(1, bc)
	if am.packed.Load() != nil {
		t.Fatal("AddCounter did not invalidate the packed snapshot")
	}
}

func TestNewPackedMemoryErrors(t *testing.T) {
	if _, err := NewPackedMemory(nil); err == nil {
		t.Fatal("expected empty class error")
	}
	if _, err := NewPackedMemory([]*Binary{NewBinary(64), nil}); err == nil {
		t.Fatal("expected nil class error")
	}
	if _, err := NewPackedMemory([]*Binary{NewBinary(64), NewBinary(128)}); err == nil {
		t.Fatal("expected dimension mismatch error")
	}
}

func TestPackedMemoryBytes(t *testing.T) {
	pm, err := NewPackedMemory([]*Binary{NewBinary(100), NewBinary(100)})
	if err != nil {
		t.Fatal(err)
	}
	if got := pm.MemoryBytes(); got != 2*2*8 { // 2 classes × 2 words × 8 bytes
		t.Fatalf("MemoryBytes = %d", got)
	}
}

func TestBinaryFlip(t *testing.T) {
	b := NewBinary(70)
	b.Flip(0)
	b.Flip(69)
	if b.Bit(0) != 1 || b.Bit(69) != 1 {
		t.Fatal("flip did not set bits")
	}
	b.Flip(69)
	if b.Bit(69) != 0 {
		t.Fatal("double flip did not clear")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected out-of-range panic")
		}
	}()
	b.Flip(70)
}

func TestBinaryWordsRoundTrip(t *testing.T) {
	rng := NewRNG(4)
	for _, d := range []int{1, 63, 64, 65, 500} {
		b := RandomBinary(d, rng)
		c, err := BinaryFromWords(d, b.Words())
		if err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		if !c.Equal(b) {
			t.Fatalf("d=%d: round trip changed vector", d)
		}
	}
	if _, err := BinaryFromWords(0, nil); err == nil {
		t.Fatal("expected dimension error")
	}
	if _, err := BinaryFromWords(64, make([]uint64, 2)); err == nil {
		t.Fatal("expected word count error")
	}
	if _, err := BinaryFromWords(10, []uint64{1 << 12}); err == nil {
		t.Fatal("expected tail bit error")
	}
}
