package core

import (
	"slices"
	"testing"

	"graphhd/internal/dataset"
	"graphhd/internal/graph"
	"graphhd/internal/hdc"
)

// TestBlockedEncodeMatchesScalarAllDatasets pins the blocked encoder to
// the int8 reference: on every synthetic Table-I dataset the rank-pair
// keyed, carry-save-blocked edge accumulation produces encodings
// bit-for-bit identical to encodeGraphSlow's per-edge int8 bundle, and
// the bipolar output packed equals the packed output.
func TestBlockedEncodeMatchesScalarAllDatasets(t *testing.T) {
	for _, name := range dataset.Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			count := 12
			if name == "DD" { // DD graphs are ~25× larger than the rest
				count = 4
			}
			ds, err := dataset.Generate(name, dataset.Options{Seed: 11, GraphCount: count})
			if err != nil {
				t.Fatal(err)
			}
			cfg := testConfig()
			cfg.Dimension = 1024
			enc := MustNewEncoder(cfg)
			s := enc.NewScratch()
			for i, g := range ds.Graphs {
				if g.NumEdges() == 0 {
					continue // edgeless graphs bypass the counter entirely
				}
				want := enc.encodeGraphSlow(g).PackBinary()
				if got := s.EncodeGraphPacked(g); !got.Equal(want) {
					t.Fatalf("graph %d: blocked packed encode differs from the int8 reference", i)
				}
				if got := enc.EncodeGraph(g).PackBinary(); !got.Equal(want) {
					t.Fatalf("graph %d: blocked bipolar encode differs from the int8 reference", i)
				}
			}
		})
	}
}

// TestBlockedEncodeAllocationFree asserts the other half of the
// acceptance criterion on every dataset shape: once the scratch's
// grouping buffers have grown, steady-state encoding and serving-style
// prediction (PredictWith, no pool involved) allocate nothing — including
// under the race detector, which is why this test takes no raceEnabled
// skip.
func TestBlockedEncodeAllocationFree(t *testing.T) {
	gs, ys := twoClassDataset(12, 77)
	m, err := Train(testConfig(), gs, ys)
	if err != nil {
		t.Fatal(err)
	}
	pred := m.Snapshot()
	s := pred.Encoder().NewScratch()
	for _, g := range gs {
		pred.PredictWith(s, g) // grow scratch buffers and the basis table
	}
	if allocs := testing.AllocsPerRun(30, func() {
		for _, g := range gs {
			s.EncodeGraphPacked(g)
		}
	}); allocs != 0 {
		t.Fatalf("blocked EncodeGraphPacked allocated %v times per run, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(30, func() {
		for _, g := range gs {
			pred.PredictWith(s, g)
		}
	}); allocs != 0 {
		t.Fatalf("PredictWith allocated %v times per run, want 0", allocs)
	}
}

// TestEncodeFourCycleMatchesScalar: on a 4-cycle, edges (0,1), (1,2),
// (2,3), (0,3), every unordered rank pair is distinct whatever the rank
// bijection, and the encode must reproduce the per-edge int8 reference
// exactly.
func TestEncodeFourCycleMatchesScalar(t *testing.T) {
	g, err := graph.FromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 3}})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Dimension = 512
	enc := MustNewEncoder(cfg)
	s := enc.NewScratch()
	want := enc.encodeGraphSlow(g).PackBinary()
	if !s.EncodeGraphPacked(g).Equal(want) {
		t.Fatal("encode of 4-cycle differs from the int8 reference")
	}
}

// TestGroupKeysStrictlyIncreasing pins what lets the encoder treat every
// rank-pair key as its own operand. group leaves a graph's keys in edge
// order (majority counts do not depend on operand order), so the test
// sorts each segment itself and checks two things: the segment holds
// exactly the keys of the graph's edges' (min rank, max rank) rows, and sorted
// it is strictly increasing — graph.Builder drops self-loops and
// duplicate edges and ranks are a bijection, so the keys are distinct.
// Checked on all six datasets and on a Builder graph fed repeated and
// reversed edges and self-loops.
func TestGroupKeysStrictlyIncreasing(t *testing.T) {
	b := graph.NewBuilder(6)
	for _, e := range [][2]int{{0, 1}, {1, 0}, {0, 1}, {2, 2}, {1, 2}, {2, 1}, {3, 3}, {3, 4}, {4, 5}, {5, 3}, {5, 5}, {4, 3}} {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	sets := map[string][]*graph.Graph{"builder": {b.Build()}}
	for _, name := range dataset.Names() {
		count := 60
		if name == "DD" { // DD graphs are ~25× larger than the rest
			count = 15
		}
		ds, err := dataset.Generate(name, dataset.Options{Seed: 9, GraphCount: count})
		if err != nil {
			t.Fatal(err)
		}
		sets[name] = ds.Graphs
	}
	cfg := testConfig()
	cfg.Dimension = 256
	enc := MustNewEncoder(cfg)
	s := enc.NewScratch()
	for name, gs := range sets {
		s.group(gs)
		for gi, g := range gs {
			seg := slices.Sorted(slices.Values(s.keys[s.keyOff[gi]:s.keyOff[gi+1]]))
			ranks := enc.Ranks(g)
			var want []uint64
			for _, ed := range g.Edges() {
				lo, hi := min(ranks[ed.U], ranks[ed.V]), max(ranks[ed.U], ranks[ed.V])
				want = append(want, hdc.Key(lo*enc.stride, hi*enc.stride))
			}
			slices.Sort(want)
			if !slices.Equal(seg, want) {
				t.Fatalf("%s graph %d: keys %#x, want the edges' rank-row pairs %#x", name, gi, seg, want)
			}
			for j := 1; j < len(seg); j++ {
				if seg[j] <= seg[j-1] {
					t.Fatalf("%s graph %d: sorted key %d (%#x) does not exceed key %d (%#x)", name, gi, j, seg[j], j-1, seg[j-1])
				}
			}
		}
	}
}
