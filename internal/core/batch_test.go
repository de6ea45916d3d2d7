package core

import (
	"testing"

	"graphhd/internal/dataset"
	"graphhd/internal/graph"
	"graphhd/internal/hdc"
)

// TestBatchEncodeMatchesSingleAllDatasets pins the batch pipeline
// against the int8 reference encoder: on every synthetic Table-I
// dataset, EncodeBatch produces encodings bit-for-bit identical to
// encodeGraphSlow(g).PackBinary(), for batch sizes that exercise a lone
// graph, partial carry-save blocks, full micro-batches, and ragged tails;
// the pooled per-graph API returns retained copies of the same bits; and
// PredictBatchWith, Predict and PredictAll all classify exactly as the
// reference encodings do.
func TestBatchEncodeMatchesSingleAllDatasets(t *testing.T) {
	for _, name := range dataset.Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			count := 33 // a full 32-batch plus a ragged tail of 1
			if name == "DD" {
				count = 9 // DD graphs are ~25× larger than the rest
			}
			ds, err := dataset.Generate(name, dataset.Options{Seed: 19, GraphCount: count})
			if err != nil {
				t.Fatal(err)
			}
			cfg := testConfig()
			cfg.Dimension = 1024
			enc := MustNewEncoder(cfg)
			want := make([]*hdc.Binary, len(ds.Graphs))
			for i, g := range ds.Graphs {
				want[i] = enc.encodeGraphSlow(g).PackBinary()
			}
			bs := enc.NewScratch()
			for _, size := range []int{1, 7, 32} {
				for lo := 0; lo < len(ds.Graphs); lo += size {
					hi := min(lo+size, len(ds.Graphs))
					batch := ds.Graphs[lo:hi]
					outs := bs.EncodeBatch(batch)
					if len(outs) != len(batch) {
						t.Fatalf("size %d: %d outputs for %d graphs", size, len(outs), len(batch))
					}
					for i := range batch {
						if !outs[i].Equal(want[lo+i]) {
							t.Fatalf("size %d: graph %d batch encoding differs from the reference", size, lo+i)
						}
					}
				}
			}

			// The pooled public API returns retained copies with the same bits.
			kept := make([]*hdc.Binary, min(7, len(ds.Graphs)))
			for i := range kept {
				kept[i] = enc.EncodeGraphPacked(ds.Graphs[i])
			}
			for i, o := range kept {
				if !o.Equal(want[i]) {
					t.Fatalf("Encoder.EncodeGraphPacked graph %d differs from the reference", i)
				}
			}

			// Batch, per-graph and chunked classification all decide as the
			// reference encodings do.
			m, err := Train(cfg, ds.Graphs, ds.Labels)
			if err != nil {
				t.Fatal(err)
			}
			pred := m.Snapshot()
			got := make([]int, len(ds.Graphs))
			pred.PredictBatchWith(pred.Encoder().NewScratch(), ds.Graphs, got)
			for i, g := range ds.Graphs {
				ref := pred.PredictEncoded(want[i])
				if got[i] != ref {
					t.Fatalf("PredictBatchWith[%d] = %d, reference %d", i, got[i], ref)
				}
				if c := pred.Predict(g); c != ref {
					t.Fatalf("Predict[%d] = %d, reference %d", i, c, ref)
				}
			}
			if all := pred.PredictAll(ds.Graphs); !equalInts(all, got) {
				t.Fatalf("PredictAll disagrees with PredictBatchWith")
			}
		})
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestBatchEncodeMixedFallbacks checks the fast path's exclusions: a
// batch mixing fast-path graphs with edgeless graphs (and, under the
// labeled extension, labeled graphs) still matches the int8 reference on
// every slot.
func TestBatchEncodeMixedFallbacks(t *testing.T) {
	edgeless, err := graph.FromEdges(5, nil)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := graph.FromEdges(6, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}})
	if err != nil {
		t.Fatal(err)
	}
	lb := graph.NewBuilder(4)
	lb.MustAddEdge(0, 1)
	lb.MustAddEdge(1, 2)
	lb.MustAddEdge(2, 3)
	if err := lb.SetVertexLabels([]int{0, 1, 0, 1}); err != nil {
		t.Fatal(err)
	}
	labeled := lb.Build()

	for _, useLabels := range []bool{false, true} {
		cfg := testConfig()
		cfg.Dimension = 512
		cfg.UseVertexLabels = useLabels
		enc := MustNewEncoder(cfg)
		batch := []*graph.Graph{ring, edgeless, labeled, ring, edgeless}
		outs := enc.NewScratch().EncodeBatch(batch)
		for i, g := range batch {
			if want := enc.encodeGraphSlow(g).PackBinary(); !outs[i].Equal(want) {
				t.Fatalf("useLabels=%v: batch slot %d differs from the reference", useLabels, i)
			}
		}
	}
}

// TestBatchEncodeAllocationFree asserts the scratch's steady-state
// batch property: once key, operand and output buffers have grown,
// EncodeBatch and PredictBatchWith perform zero heap allocations per
// batch — including under the race detector (the scratch is caller-owned,
// no pool involved).
func TestBatchEncodeAllocationFree(t *testing.T) {
	gs, ys := twoClassDataset(16, 41)
	m, err := Train(testConfig(), gs, ys)
	if err != nil {
		t.Fatal(err)
	}
	pred := m.Snapshot()
	enc := pred.Encoder()
	bs := enc.NewScratch()
	out := make([]int, len(gs))
	bs.EncodeBatch(gs) // grow scratch buffers and the basis table
	pred.PredictBatchWith(bs, gs, out)
	if allocs := testing.AllocsPerRun(30, func() {
		bs.EncodeBatch(gs)
	}); allocs != 0 {
		t.Fatalf("EncodeBatch allocated %v times per run, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(30, func() {
		pred.PredictBatchWith(bs, gs, out)
	}); allocs != 0 {
		t.Fatalf("PredictBatchWith allocated %v times per run, want 0", allocs)
	}
}

// TestBatchScratchReuseAcrossBatchSizes guards buffer-reset bugs: a
// scratch that has grouped a large batch must still encode smaller and
// differently shaped batches correctly (stale offsets or keys would
// surface as wrong encodings).
func TestBatchScratchReuseAcrossBatchSizes(t *testing.T) {
	gs, _ := twoClassDataset(20, 5)
	cfg := testConfig()
	cfg.Dimension = 768
	enc := MustNewEncoder(cfg)
	bs := enc.NewScratch()
	for _, batch := range [][]*graph.Graph{gs, gs[:3], gs[7:9], gs, gs[:1]} {
		outs := bs.EncodeBatch(batch)
		for i, g := range batch {
			if want := encodePackedScalarReference(enc, g); !outs[i].Equal(want) {
				t.Fatalf("reused scratch: slot %d differs from the per-edge reference", i)
			}
		}
	}
}

// TestPredictBatchWithPanics pins the misuse contracts of the serving
// batch primitive.
func TestPredictBatchWithPanics(t *testing.T) {
	gs, ys := twoClassDataset(4, 9)
	m, err := Train(testConfig(), gs, ys)
	if err != nil {
		t.Fatal(err)
	}
	pred := m.Snapshot()
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	expectPanic("length mismatch", func() {
		pred.PredictBatchWith(pred.Encoder().NewScratch(), gs, make([]int, 1))
	})
	other := MustNewEncoder(testConfig())
	expectPanic("foreign scratch", func() {
		pred.PredictBatchWith(other.NewScratch(), gs, make([]int, len(gs)))
	})
}
