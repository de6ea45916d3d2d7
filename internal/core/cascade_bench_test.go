package core

import (
	"testing"

	"graphhd/internal/dataset"
)

// BenchmarkPredictBatchCascade times the offline two-stage batch path
// against BenchmarkPredictBatchFull on the same 32-graph MUTAG workload
// the serve benchmarks use, isolating the cascade win from engine
// dispatch overhead.
func BenchmarkPredictBatchCascade(b *testing.B) {
	ds := dataset.MustGenerate("MUTAG", dataset.Options{Seed: 7, GraphCount: 48})
	m, err := Train(DefaultConfig(), ds.Graphs, ds.Labels)
	if err != nil {
		b.Fatal(err)
	}
	pred := m.Snapshot()
	if err := pred.SetCascade(Cascade{DPrefix: 1024, Margin: 12}); err != nil {
		b.Fatal(err)
	}
	s := pred.Encoder().NewScratch()
	graphs := ds.Graphs[:32]
	out := make([]int, len(graphs))
	pred.PredictBatchCascadeTraced(s, graphs, out, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pred.PredictBatchCascadeTraced(s, graphs, out, nil)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(graphs)), "ns/graph")
}

// BenchmarkPredictBatchFull is the single-stage full-dimension twin.
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
