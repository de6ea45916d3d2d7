package core

import (
	"fmt"

	"testing"

	"graphhd/internal/dataset"
	"graphhd/internal/hdc"
)

// BenchmarkFig4Encode980 isolates the encoder on the largest Figure 4
// workload (20 ER graphs, 980 vertices, p≈0.05); it is the profile target
// used to drive the bit-sliced encoding optimizations.
func BenchmarkFig4Encode980(b *testing.B) {
	ds := dataset.Scaling(980, 20, 1)
	cfg := DefaultConfig()
	cfg.Dimension = 2048
	enc := MustNewEncoder(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range ds.Graphs {
			enc.EncodeGraph(g)
		}
	}
}

// BenchmarkFig4Encode980Scratch is the same workload on a reused
// EncoderScratch — the steady-state serving path, zero allocs/op.
func BenchmarkFig4Encode980Scratch(b *testing.B) {
	ds := dataset.Scaling(980, 20, 1)
	cfg := DefaultConfig()
	cfg.Dimension = 2048
	enc := MustNewEncoder(cfg)
	s := enc.NewScratch()
	for _, g := range ds.Graphs {
		s.EncodeGraphPacked(g) // warm buffers and the packed basis table
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range ds.Graphs {
			s.EncodeGraphPacked(g)
		}
	}
}

// BenchmarkEncodeGraph measures the allocating single-shot API: scratch
// state is pooled internally, only the returned hypervector is fresh.
func BenchmarkEncodeGraph(b *testing.B) {
	ds, err := dataset.Generate("ENZYMES", dataset.Options{Seed: 2, GraphCount: 6})
	if err != nil {
		b.Fatal(err)
	}
	enc := MustNewEncoder(DefaultConfig())
	g := ds.Graphs[0]
	enc.EncodeGraph(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc.EncodeGraph(g)
	}
}

// BenchmarkEncodeGraphPacked is BenchmarkEncodeGraph on the packed output.
func BenchmarkEncodeGraphPacked(b *testing.B) {
	ds, err := dataset.Generate("ENZYMES", dataset.Options{Seed: 2, GraphCount: 6})
	if err != nil {
		b.Fatal(err)
	}
	enc := MustNewEncoder(DefaultConfig())
	g := ds.Graphs[0]
	enc.EncodeGraphPacked(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc.EncodeGraphPacked(g)
	}
}

// BenchmarkEncodeScratchPacked is the acceptance benchmark of the encode
// hot path: steady-state unlabeled-graph encoding into a reused scratch,
// 0 allocs/op. PR 2 (scratch reuse) brought it from ≥14 allocs to 0 at
// ~96 µs/op; PR 4 (blocked carry-save accumulation + SWAR majority sign)
// brought it to ~34 µs/op on the same 2.10 GHz Xeon baseline.
func BenchmarkEncodeScratchPacked(b *testing.B) {
	ds, err := dataset.Generate("ENZYMES", dataset.Options{Seed: 2, GraphCount: 6})
	if err != nil {
		b.Fatal(err)
	}
	enc := MustNewEncoder(DefaultConfig())
	s := enc.NewScratch()
	g := ds.Graphs[0]
	s.EncodeGraphPacked(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.EncodeGraphPacked(g)
	}
}

// BenchmarkEncodeScratchPackedScalar re-times the same workload through
// the pre-blocking per-edge AddXor loop (reused counter, no grouping, no
// carry-save front end) — the PR 2 baseline kept alive so the blocked
// path's speedup stays measurable in one run.
func BenchmarkEncodeScratchPackedScalar(b *testing.B) {
	ds, err := dataset.Generate("ENZYMES", dataset.Options{Seed: 2, GraphCount: 6})
	if err != nil {
		b.Fatal(err)
	}
	enc := MustNewEncoder(DefaultConfig())
	s := enc.NewScratch()
	g := ds.Graphs[0]
	s.EncodeGraphPacked(g) // warm buffers and the packed basis table
	counter := hdc.NewBitCounter(enc.Dimension())
	out := hdc.NewBinary(enc.Dimension())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ranks := s.Ranks(g)
		packed := enc.packedSlice(g.NumVertices())
		counter.Reset()
		for _, ed := range g.Edges() {
			counter.AddXor(packed[ranks[ed.U]], packed[ranks[ed.V]], true)
		}
		counter.SignBinaryInto(enc.packedTie, out)
	}
}

// BenchmarkEncodeScratchBipolar is the bipolar-output variant, also
// 0 allocs/op.
func BenchmarkEncodeScratchBipolar(b *testing.B) {
	ds, err := dataset.Generate("ENZYMES", dataset.Options{Seed: 2, GraphCount: 6})
	if err != nil {
		b.Fatal(err)
	}
	enc := MustNewEncoder(DefaultConfig())
	s := enc.NewScratch()
	g := ds.Graphs[0]
	s.EncodeGraph(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.EncodeGraph(g)
	}
}

// BenchmarkEncodeRanks isolates the centrality-rank step (PageRank power
// iteration plus the allocation-free index sort) on the scratch path.
func BenchmarkEncodeRanks(b *testing.B) {
	ds, err := dataset.Generate("ENZYMES", dataset.Options{Seed: 2, GraphCount: 6})
	if err != nil {
		b.Fatal(err)
	}
	enc := MustNewEncoder(DefaultConfig())
	s := enc.NewScratch()
	g := ds.Graphs[0]
	s.Ranks(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Ranks(g)
	}
}

// BenchmarkEncodeBatch times 32 ENZYMES graphs encoded in one batch call
// on a reused EncoderScratch, 0 allocs/op steady-state. The per-graph
// metric is directly comparable to BenchmarkEncodeScratchPacked.
func BenchmarkEncodeBatch(b *testing.B) {
	ds, err := dataset.Generate("ENZYMES", dataset.Options{Seed: 2, GraphCount: 32})
	if err != nil {
		b.Fatal(err)
	}
	enc := MustNewEncoder(DefaultConfig())
	bs := enc.NewScratch()
	bs.EncodeBatch(ds.Graphs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bs.EncodeBatch(ds.Graphs)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ds.Graphs)), "ns/graph")
}

// BenchmarkEncodeScratchPackedDim sweeps the encode hot path across query
// widths on ONE full-dimension encoder: EncodeGraphPackedPrefix narrows
// the carry-save counter to the leading ⌈d/64⌉ words at call time, so the
// sweep shows how per-graph encode cost scales with the runtime dimension
// parameter (d=10000 is the full-width EncodeGraphPacked workload).
func BenchmarkEncodeScratchPackedDim(b *testing.B) {
	ds, err := dataset.Generate("ENZYMES", dataset.Options{Seed: 2, GraphCount: 6})
	if err != nil {
		b.Fatal(err)
	}
	enc := MustNewEncoder(DefaultConfig())
	s := enc.NewScratch()
	g := ds.Graphs[0]
	for _, d := range []int{1000, 2000, 10000} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			s.EncodeGraphPackedPrefix(g, d)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.EncodeGraphPackedPrefix(g, d)
			}
		})
	}
}
