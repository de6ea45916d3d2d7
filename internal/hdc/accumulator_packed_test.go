package hdc

import (
	"fmt"
	"testing"
)

// The packed Accumulator entry points must reproduce their int8
// counterparts exactly: the int8 methods are the oracle.

func TestAccumulatorPackedMatchesInt8(t *testing.T) {
	for _, d := range []int{1, 63, 64, 100, 1000, 10007} {
		rng := NewRNG(uint64(d))
		ref, got := NewAccumulator(d), NewAccumulator(d)
		tie := RandomBipolar(d, rng)
		// Odd weight totals leave no zero sums; even ones leave exact ties
		// for the tie vector to break.
		weights := []int{1, 1, -1, 3, -2, 1}
		for i, w := range weights {
			v := RandomBipolar(d, rng)
			ref.AddWeighted(v, w)
			got.AddPacked(v.PackBinary(), w)
			if !equalSums(ref, got) || ref.Count() != got.Count() {
				t.Fatalf("d=%d step %d: AddPacked differs from AddWeighted", d, i)
			}
			q := RandomBipolar(d, rng)
			if a, b := got.CosineToSumsPacked(q.PackBinary()), ref.CosineToSums(q); a != b {
				t.Fatalf("d=%d step %d: packed cosine %v, int8 %v (must be exactly equal)", d, i, a, b)
			}
			if !got.SignBinary(tie.PackBinary()).Equal(ref.Sign(tie).PackBinary()) {
				t.Fatalf("d=%d step %d: SignBinary differs from Sign", d, i)
			}
		}
	}
}

func TestAccumulatorSignBinaryTies(t *testing.T) {
	// Every sum zero: the signed vector is the tie vector itself.
	acc := NewAccumulator(130)
	tie := RandomBinary(130, NewRNG(3))
	if !acc.SignBinary(tie).Equal(tie) {
		t.Fatal("all-tie accumulator did not copy the tie vector")
	}
	if acc.CosineToSumsPacked(tie) != 0 {
		t.Fatal("zero accumulator must have cosine 0")
	}
}

func TestAccumulatorAddCounterMatchesAdd(t *testing.T) {
	// 300 vectors push the counter through its byte and int32 tiers; past
	// the byte lanes' 255 units AddCounter must take the flush path.
	for _, d := range []int{65, 1000} {
		rng := NewRNG(uint64(d) + 7)
		ref, got := NewAccumulator(d), NewAccumulator(d)
		bc := NewBitCounter(d)
		vs := make([]*Binary, 300)
		for round := 0; round < 2; round++ {
			bc.Reset()
			for i := range vs {
				v := RandomBipolar(d, rng)
				ref.Add(v)
				vs[i] = v.PackBinary()
			}
			bc.AddAll(vs)
			if bc.inBytes() {
				t.Fatalf("d=%d round %d: 300 units reported in the byte lanes", d, round)
			}
			got.AddCounter(bc)
			if !equalSums(ref, got) || ref.Count() != got.Count() {
				t.Fatalf("d=%d round %d: AddCounter differs from sequential Add", d, round)
			}
		}
	}
}

// TestAccumulatorAddCounterByteLaneFold pins AddCounter's byte-lane fold,
// taken while every count is still in the byte lanes, against the int32
// fold of the same counter forced through a flush, and both against
// per-vector AddPacked, on top of nonzero sums. The vectors enter
// through one AddAll call, as in Model.Fit; 255 is the most one call
// keeps in the byte lanes (a block books its live operands, up to the
// 255 a byte holds).
func TestAccumulatorAddCounterByteLaneFold(t *testing.T) {
	forEachKernelTier(t, testAccumulatorAddCounterByteLaneFold)
}

func testAccumulatorAddCounterByteLaneFold(t *testing.T) {
	for _, d := range []int{64, 100, 1000, 10000, 10007} {
		for _, n := range []int{1, 7, 8, 9, 32, 120, 127, 255} {
			rng := NewRNG(uint64(d)<<8 | uint64(n))
			start := make([]int32, d)
			for i := range start {
				start[i] = int32(rng.Intn(2001)) - 1000
			}
			vs := make([]*Binary, n)
			for i := range vs {
				vs[i] = RandomBinary(d, rng)
			}
			lanes, flushed := NewBitCounter(d), NewBitCounter(d)
			lanes.AddAll(vs)
			flushed.AddAll(vs)
			flushed.CountAt(0) // moves every count to the int32 tier
			if !lanes.inBytes() || flushed.inBytes() {
				t.Fatalf("d=%d n=%d: counters not in the tiers under test", d, n)
			}
			ref, byLanes, byCounts := NewAccumulator(d), NewAccumulator(d), NewAccumulator(d)
			for _, a := range []*Accumulator{ref, byLanes, byCounts} {
				if err := a.LoadSums(start, 5); err != nil {
					t.Fatal(err)
				}
			}
			for _, v := range vs {
				ref.AddPacked(v, 1)
			}
			byLanes.AddCounter(lanes)
			byCounts.AddCounter(flushed)
			if lanes.countsDirty {
				t.Fatalf("d=%d n=%d: AddCounter flushed a counter whose counts fit the byte lanes", d, n)
			}
			if !equalSums(byLanes, byCounts) || byLanes.Count() != byCounts.Count() {
				t.Fatalf("d=%d n=%d: byte-lane fold differs from the int32 fold", d, n)
			}
			if !equalSums(byLanes, ref) || byLanes.Count() != ref.Count() {
				t.Fatalf("d=%d n=%d: byte-lane fold differs from per-vector AddPacked", d, n)
			}
			// The fold leaves the counts in place until Reset.
			counts := newNaiveCounter(d)
			counts.addAll(vs)
			counts.check(t, fmt.Sprintf("d=%d n=%d lanes after fold", d, n), lanes)
			counts.check(t, fmt.Sprintf("d=%d n=%d flushed after fold", d, n), flushed)
		}
	}
}

func TestAccumulatorPackedDimensionMismatchPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"AddPacked":  func() { NewAccumulator(64).AddPacked(NewBinary(65), 1) },
		"AddCounter": func() { NewAccumulator(64).AddCounter(NewBitCounter(65)) },
		"SignBinary": func() { NewAccumulator(64).SignBinary(NewBinary(65)) },
		"Cosine":     func() { NewAccumulator(64).CosineToSumsPacked(NewBinary(65)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected a dimension panic", name)
				}
			}()
			fn()
		}()
	}
}

func equalSums(a, b *Accumulator) bool {
	for i := range a.sums {
		if a.sums[i] != b.sums[i] {
			return false
		}
	}
	return len(a.sums) == len(b.sums)
}

// TestItemMemoryPackedVectorMatchesTable checks the packed basis, drawn
// by index from the stream, against the int8 table word for word, with
// either table grown first.
func TestItemMemoryPackedVectorMatchesTable(t *testing.T) {
	for _, d := range []int{100, 1000, 10000, 10007} {
		for _, int8First := range []bool{false, true} {
			m := NewItemMemory(d, 0x5eed^uint64(d))
			var packed []*Binary
			if int8First {
				m.Reserve(50)
			}
			for r := 49; r >= 0; r-- { // out of order: generation is by index
				packed = append(packed, m.PackedVector(r))
			}
			for i, p := range packed {
				r := 49 - i
				if !p.Equal(m.Vector(r).PackBinary()) {
					t.Fatalf("d=%d int8First=%v: rank %d packed vector differs from the table", d, int8First, r)
				}
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on a negative id")
		}
	}()
	NewItemMemory(64, 1).PackedVector(-1)
}

// TestAssociativeMemoryInt32MatchesCosineToSums pins the default mode's
// packed query against the int8 reference after learning and unlearning.
func TestAssociativeMemoryInt32MatchesCosineToSums(t *testing.T) {
	const k, d = 3, 1000
	rng := NewRNG(21)
	am := NewAssociativeMemory(k, d, 7, false)
	for step := 0; step < 40; step++ {
		v := RandomBinary(d, rng)
		if step%5 == 4 {
			am.Unlearn(step%k, v)
		} else {
			am.Learn(step%k, v)
		}
		q := RandomBipolar(d, rng)
		sims := am.Similarities(q.PackBinary())
		want := 0
		for c := range sims {
			ref := am.ClassAccumulator(c).CosineToSums(q)
			if sims[c] != ref {
				t.Fatalf("step %d class %d: packed %v, int8 %v (must be exactly equal)", step, c, sims[c], ref)
			}
			if ref > sims[want] {
				want = c
			}
		}
		if got := am.Classify(q.PackBinary()); got != want {
			t.Fatalf("step %d: class %d, want %d", step, got, want)
		}
	}
}

// TestAssociativeMemoryRefreshRecycles checks that a writer which
// refreshes before classifying allocates nothing per update, in both
// modes, and that the refreshed snapshot is current.
func TestAssociativeMemoryRefreshRecycles(t *testing.T) {
	for _, bipolar := range []bool{false, true} {
		const d = 512
		rng := NewRNG(22)
		am := NewAssociativeMemory(2, d, 8, bipolar)
		vs := []*Binary{RandomBinary(d, rng), RandomBinary(d, rng)}
		am.Learn(0, vs[0])
		am.Learn(1, vs[1])
		am.Refresh()
		am.Classify(vs[0]) // warm: the spare exists after the next update
		i := 0
		allocs := testing.AllocsPerRun(20, func() {
			am.Learn(i%2, vs[i%2])
			am.Refresh()
			am.Classify(vs[(i+1)%2])
			i++
		})
		if allocs != 0 {
			t.Fatalf("bipolar=%v: update + Refresh + Classify allocated %v times per run", bipolar, allocs)
		}
		fresh := NewAssociativeMemory(2, d, 8, bipolar)
		for c := 0; c < 2; c++ {
			if err := fresh.LoadClass(c, am.ClassAccumulator(c).Sums(), am.ClassAccumulator(c).Count()); err != nil {
				t.Fatal(err)
			}
		}
		for _, q := range vs {
			a, b := am.Similarities(q), fresh.Similarities(q)
			if a[0] != b[0] || a[1] != b[1] {
				t.Fatalf("bipolar=%v: refreshed snapshot is stale: %v vs %v", bipolar, a, b)
			}
		}
	}
}
