package core

import (
	"sync"
	"testing"

	"graphhd/internal/dataset"
	"graphhd/internal/graph"
)

// The training benchmarks run at the paper's scale: NCI1 (4,110 graphs)
// and, for Train, ENZYMES (600 graphs); d = 10,000, DefaultConfig.

var (
	nci1Once sync.Once
	nci1     *graph.Dataset
)

func benchNCI1(b *testing.B) *graph.Dataset {
	b.Helper()
	nci1Once.Do(func() {
		ds, err := dataset.Generate("NCI1", dataset.Options{Seed: 5})
		if err != nil {
			panic(err)
		}
		nci1 = ds
	})
	return nci1
}

// BenchmarkTrain times core.Train on the whole of NCI1 (two classes) —
// encoder, basis, model and Fit — and reports it per graph.
func BenchmarkTrain(b *testing.B) {
	benchTrain(b, benchNCI1(b))
}

// BenchmarkTrainENZYMES is BenchmarkTrain on ENZYMES (600 graphs, six
// classes), where each class's graphs are bundled and folded apart.
func BenchmarkTrainENZYMES(b *testing.B) {
	ds, err := dataset.Generate("ENZYMES", dataset.Options{Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	benchTrain(b, ds)
}

func benchTrain(b *testing.B, ds *graph.Dataset) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(DefaultConfig(), ds.Graphs, ds.Labels); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*len(ds.Graphs)), "us/graph")
}

// BenchmarkOnlineUpdate times one OnlineUpdate with the true label, cycling
// through NCI1 on a model trained on all of it; a fraction of the updates
// correct the model, as in the serving feedback loop.
func BenchmarkOnlineUpdate(b *testing.B) {
	ds := benchNCI1(b)
	m, err := Train(DefaultConfig(), ds.Graphs, ds.Labels)
	if err != nil {
		b.Fatal(err)
	}
	corrective := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(ds.Graphs)
		up, err := m.OnlineUpdate(ds.Graphs[j], ds.Labels[j])
		if err != nil {
			b.Fatal(err)
		}
		if up {
			corrective++
		}
	}
	b.ReportMetric(float64(corrective)/float64(b.N), "corrective/op")
}

// BenchmarkSnapshot times signing a trained two-class model's int32 sums
// into a packed Predictor.
func BenchmarkSnapshot(b *testing.B) {
	ds := benchNCI1(b)
	m, err := Train(DefaultConfig(), ds.Graphs, ds.Labels)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Snapshot()
	}
}
