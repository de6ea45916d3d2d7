package hdc

import (
	"math"
	"sync"
	"testing"
)

func TestItemMemoryStable(t *testing.T) {
	m := NewItemMemory(256, 1)
	v1 := m.Vector(5)
	v2 := m.Vector(5)
	if v1 != v2 {
		t.Fatal("repeated lookup returned different pointers")
	}
}

func TestItemMemoryAccessOrderIndependent(t *testing.T) {
	a := NewItemMemory(256, 9)
	b := NewItemMemory(256, 9)
	// Access in different orders; vectors must agree id-by-id.
	for _, id := range []int{7, 2, 5} {
		a.Vector(id)
	}
	for _, id := range []int{0, 5, 7, 2} {
		b.Vector(id)
	}
	for id := 0; id <= 7; id++ {
		if !a.Vector(id).Equal(b.Vector(id)) {
			t.Fatalf("vector %d differs across access orders", id)
		}
	}
}

func TestItemMemoryDistinctSymbolsQuasiOrthogonal(t *testing.T) {
	m := NewItemMemory(10000, 2)
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			if c := math.Abs(m.Vector(i).Cosine(m.Vector(j))); c > 0.05 {
				t.Fatalf("|cos(V%d, V%d)| = %f, want near 0", i, j, c)
			}
		}
	}
}

func TestItemMemoryNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative id")
		}
	}()
	NewItemMemory(16, 1).Vector(-1)
}

func TestItemMemoryConcurrent(t *testing.T) {
	m := NewItemMemory(128, 3)
	var wg sync.WaitGroup
	vecs := make([]*Bipolar, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := 0; id < 64; id++ {
				v := m.Vector(id)
				_ = v
			}
		}()
	}
	wg.Wait()
	for id := range vecs {
		vecs[id] = m.Vector(id)
	}
	if m.Len() != 64 {
		t.Fatalf("len = %d, want 64", m.Len())
	}
}

func TestItemMemoryReserve(t *testing.T) {
	m := NewItemMemory(64, 4)
	m.Reserve(10)
	if m.Len() != 10 {
		t.Fatalf("len after Reserve(10) = %d", m.Len())
	}
	m.Reserve(0) // no-op
	if m.Len() != 10 {
		t.Fatal("Reserve(0) changed length")
	}
}

func TestAssociativeMemoryLearnClassify(t *testing.T) {
	const d = 10000
	rng := NewRNG(5)
	am := NewAssociativeMemory(3, d, 99, false)
	// Each class gets noisy copies of a distinct prototype.
	protos := make([]*Bipolar, 3)
	for c := range protos {
		protos[c] = RandomBipolar(d, rng)
	}
	noisy := func(p *Bipolar, flips int) *Bipolar {
		v := p.Clone()
		perm := rng.Perm(d)
		for _, i := range perm[:flips] {
			v.comps[i] = -v.comps[i]
		}
		return v
	}
	for c, p := range protos {
		for i := 0; i < 10; i++ {
			am.Learn(c, noisy(p, d/10).PackBinary())
		}
	}
	for c, p := range protos {
		q := noisy(p, d/5)
		if got := am.Classify(q.PackBinary()); got != c {
			t.Fatalf("classified class-%d query as %d", c, got)
		}
	}
}

func TestAssociativeMemoryBipolarMode(t *testing.T) {
	const d = 10000
	rng := NewRNG(6)
	am := NewAssociativeMemory(2, d, 100, true)
	p0 := RandomBipolar(d, rng)
	p1 := RandomBipolar(d, rng)
	am.Learn(0, p0.PackBinary())
	am.Learn(1, p1.PackBinary())
	if am.Classify(p0.PackBinary()) != 0 || am.Classify(p1.PackBinary()) != 1 {
		t.Fatal("bipolar-mode classification failed on exact prototypes")
	}
	cv := am.ClassVector(0)
	if !cv.Equal(p0) {
		t.Fatal("single-sample class vector should equal the sample")
	}
}

func TestAssociativeMemoryUnlearn(t *testing.T) {
	const d = 1024
	rng := NewRNG(7)
	am := NewAssociativeMemory(2, d, 101, false)
	v := RandomBipolar(d, rng)
	w := RandomBipolar(d, rng)
	am.Learn(0, v.PackBinary())
	am.Learn(0, w.PackBinary())
	am.Unlearn(0, w.PackBinary())
	acc := am.ClassAccumulator(0)
	for i := 0; i < d; i++ {
		if acc.Sum(i) != int32(v.At(i)) {
			t.Fatal("unlearn did not restore accumulator")
		}
	}
}

func TestAssociativeMemoryReset(t *testing.T) {
	am := NewAssociativeMemory(2, 64, 103, false)
	am.Learn(0, RandomBinary(64, NewRNG(9)))
	am.Reset()
	if am.ClassAccumulator(0).Count() != 0 {
		t.Fatal("reset did not clear accumulators")
	}
}

// TestAssociativeMemoryReinforce adds w votes of one vector to a class in
// bulk, through a counter that counted it w times.
func TestAssociativeMemoryReinforce(t *testing.T) {
	am := NewAssociativeMemory(2, 128, 104, false)
	v := RandomBipolar(128, NewRNG(10))
	bc := NewBitCounter(128)
	p := v.PackBinary()
	bc.AddAll([]*Binary{p, p, p})
	am.AddCounter(0, bc)
	acc := am.ClassAccumulator(0)
	for i := 0; i < 128; i++ {
		if acc.Sum(i) != 3*int32(v.At(i)) {
			t.Fatal("reinforce weight not applied")
		}
	}
	if acc.Count() != 3 {
		t.Fatalf("count %d, want 3", acc.Count())
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	r := NewRNG(11)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("invalid permutation value %d", v)
		}
		seen[v] = true
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(12)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
	}
}

func TestRNGFloat64Bounds(t *testing.T) {
	r := NewRNG(13)
	for i := 0; i < 1000; i++ {
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64() = %f", f)
		}
	}
}

func TestRNGSplitIndependent(t *testing.T) {
	r := NewRNG(14)
	a := r.Split()
	b := r.Split()
	if a.Uint64() == b.Uint64() {
		t.Fatal("split children produced identical first values")
	}
}
