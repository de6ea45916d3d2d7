package hdc

import (
	"math"
	"sync"
	"testing"
)

// streamVectors is the reference basis of an item memory: its first n
// vectors drawn in order from one generator seeded with seed, as the
// memory's int8 table once drew them.
// PackedVector returns FillPacked's vector as a fresh Binary.
func (m *ItemMemory) PackedVector(id int) *Binary {
	b := NewBinary(m.dim)
	m.FillPacked(id, b.words)
	return b
}

func streamVectors(dim int, seed uint64, n int) []*Bipolar {
	rng := NewRNG(seed)
	out := make([]*Bipolar, n)
	for i := range out {
		out[i] = RandomBipolar(dim, rng)
	}
	return out
}

func TestItemMemoryStable(t *testing.T) {
	m := NewItemMemory(256, 1)
	if !m.PackedVector(5).Equal(m.PackedVector(5)) {
		t.Fatal("repeated lookup returned different vectors")
	}
}

func TestItemMemoryAccessOrderIndependent(t *testing.T) {
	a := NewItemMemory(256, 9)
	b := NewItemMemory(256, 9)
	// Access in different orders; vectors must agree id-by-id.
	got := map[int]*Binary{}
	for _, id := range []int{7, 2, 5, 0} {
		got[id] = a.PackedVector(id)
	}
	for _, id := range []int{0, 5, 7, 2} {
		if !got[id].Equal(b.PackedVector(id)) {
			t.Fatalf("vector %d differs across access orders", id)
		}
	}
}

func TestItemMemoryDistinctSymbolsQuasiOrthogonal(t *testing.T) {
	m := NewItemMemory(10000, 2)
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			if c := math.Abs(m.PackedVector(i).Cosine(m.PackedVector(j))); c > 0.05 {
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
	NewItemMemory(16, 1).PackedVector(-1)
}

// TestItemMemoryConcurrent draws vectors from eight goroutines at once;
// run it under -race. Every draw must equal the reference stream's.
func TestItemMemoryConcurrent(t *testing.T) {
	m := NewItemMemory(128, 3)
	want := streamVectors(128, 3, 64)
	var wg sync.WaitGroup
	errs := make(chan int, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := 63; id >= 0; id-- {
				if !m.PackedVector(id).Equal(want[id].PackBinary()) {
					errs <- id
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for id := range errs {
		t.Errorf("concurrent draw of vector %d differs from the stream", id)
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
	addAll(bc, []*Binary{p, p, p})
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
