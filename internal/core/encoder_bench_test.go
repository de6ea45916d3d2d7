package core

import (
	"testing"

	"graphhd/internal/dataset"
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

// BenchmarkEncodeRanksNCI1 is BenchmarkEncodeRanks over all 4,110 NCI1
// graphs (the paper-cv workload's dataset) through one scratch, reported
// per graph: the ranking floor of Train and PredictAll.
func BenchmarkEncodeRanksNCI1(b *testing.B) {
	gs := benchNCI1(b).Graphs
	s := MustNewEncoder(DefaultConfig()).NewScratch()
	for _, g := range gs {
		s.Ranks(g)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range gs {
			s.Ranks(g)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(gs)), "ns/graph")
}

// BenchmarkEncodeBatchNCI1 encodes all 4,110 NCI1 graphs through one
// scratch in 32-graph EncodeBatch calls — rank, key and sign, the encode
// half of Train and PredictAll — reported per graph.
func BenchmarkEncodeBatchNCI1(b *testing.B) {
	gs := benchNCI1(b).Graphs
	s := MustNewEncoder(DefaultConfig()).NewScratch()
	encodeAll := func() {
		for lo := 0; lo < len(gs); lo += 32 {
			s.EncodeBatch(gs[lo:min(lo+32, len(gs))])
		}
	}
	encodeAll()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		encodeAll()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(gs)), "ns/graph")
}

// BenchmarkPredictBatchFull times the batch predict primitive on the
// 32-graph MUTAG batch the serve benchmarks use, without engine
// dispatch.
func BenchmarkPredictBatchFull(b *testing.B) {
	ds := dataset.MustGenerate("MUTAG", dataset.Options{Seed: 7, GraphCount: 48})
	m, err := Train(DefaultConfig(), ds.Graphs, ds.Labels)
	if err != nil {
		b.Fatal(err)
	}
	pred := m.Snapshot()
	s := pred.Encoder().NewScratch()
	graphs := ds.Graphs[:32]
	out := make([]int, len(graphs))
	pred.PredictBatchWith(s, graphs, out)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pred.PredictBatchWith(s, graphs, out)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(graphs)), "ns/graph")
}
