package core

import (
	"testing"

	"graphhd/internal/dataset"
	"graphhd/internal/graph"
	"graphhd/internal/hdc"
)

// The Predict benchmarks isolate the associative-memory query — the step
// the packed refactor moves from an int8 multiply-accumulate to popcount
// Hamming — at the paper's scale: d = 10,000, 6 classes (ENZYMES), with
// the query hypervector pre-encoded so encoding cost (identical on both
// paths) is excluded. BipolarClassVectors selects the majority-voted
// semantics the packed path reproduces bit for bit; the Int8 variants run
// the int8 reference of that query, bipolar cosine against the class
// vectors, which no program path takes any more.

func benchModel(b *testing.B) *Model {
	b.Helper()
	ds, err := dataset.Generate("ENZYMES", dataset.Options{Seed: 1, GraphCount: 60})
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig() // d = 10,000
	cfg.BipolarClassVectors = true
	m, err := Train(cfg, ds.Graphs, ds.Labels)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

func benchQuery(b *testing.B, m *Model) *hdc.Bipolar {
	b.Helper()
	ds, err := dataset.Generate("ENZYMES", dataset.Options{Seed: 2, GraphCount: 6})
	if err != nil {
		b.Fatal(err)
	}
	return m.enc.EncodeGraph(ds.Graphs[0])
}

// int8Classify is the int8 reference query: the class whose bipolar
// vector has the largest cosine with hv, ties toward the smaller index.
func int8Classify(hv *hdc.Bipolar, classes []*hdc.Bipolar) int {
	best, bestSim := 0, hv.Cosine(classes[0])
	for c := 1; c < len(classes); c++ {
		if s := hv.Cosine(classes[c]); s > bestSim {
			best, bestSim = c, s
		}
	}
	return best
}

func classVectors(m *Model) []*hdc.Bipolar {
	out := make([]*hdc.Bipolar, m.NumClasses())
	for c := range out {
		out[c] = m.ClassVector(c)
	}
	return out
}

// BenchmarkPredictInt8 measures the int8 reference query path.
func BenchmarkPredictInt8(b *testing.B) {
	m := benchModel(b)
	hv := benchQuery(b, m)
	classes := classVectors(m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		int8Classify(hv, classes)
	}
}

// BenchmarkPredictPacked measures the packed query path on the same model
// and query.
func BenchmarkPredictPacked(b *testing.B) {
	m := benchModel(b)
	pred := m.Snapshot()
	hv := benchQuery(b, m).PackBinary()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pred.PredictEncoded(hv)
	}
}

// BenchmarkPredictEndToEndInt8 and ...Packed time the full pipeline —
// PageRank, encoding, query — per graph, the deployment-relevant latency.
func BenchmarkPredictEndToEndInt8(b *testing.B) {
	m := benchModel(b)
	classes := classVectors(m)
	ds, err := dataset.Generate("ENZYMES", dataset.Options{Seed: 2, GraphCount: 6})
	if err != nil {
		b.Fatal(err)
	}
	g := ds.Graphs[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		int8Classify(m.enc.EncodeGraph(g), classes)
	}
}

func BenchmarkPredictEndToEndPacked(b *testing.B) {
	m := benchModel(b)
	pred := m.Snapshot()
	ds, err := dataset.Generate("ENZYMES", dataset.Options{Seed: 2, GraphCount: 6})
	if err != nil {
		b.Fatal(err)
	}
	g := ds.Graphs[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pred.Predict(g)
	}
}

// BenchmarkPredictLabeled times Predictor.Predict per graph at d = 10,000
// on MUTAG-shaped graphs whose vertices carry one of 7 labels, as MUTAG's
// atoms do: with the labeled extension, where each graph fills its own
// (rank, label) slab, and without it, where the same graphs
// read the shared rank basis.
func BenchmarkPredictLabeled(b *testing.B) {
	ds, err := dataset.Generate("MUTAG", dataset.Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	rng := hdc.NewRNG(7)
	graphs := make([]*graph.Graph, len(ds.Graphs))
	for i, g := range ds.Graphs {
		bld := graph.NewBuilder(g.NumVertices())
		for _, e := range g.Edges() {
			bld.MustAddEdge(int(e.U), int(e.V))
		}
		vl := make([]int, g.NumVertices())
		for v := range vl {
			vl[v] = rng.Intn(7)
		}
		if err := bld.SetVertexLabels(vl); err != nil {
			b.Fatal(err)
		}
		graphs[i] = bld.Build()
	}
	for _, leg := range []struct {
		name   string
		labels bool
	}{{"labeled", true}, {"unlabeled", false}} {
		b.Run(leg.name, func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.UseVertexLabels = leg.labels
			m, err := Train(cfg, graphs, ds.Labels)
			if err != nil {
				b.Fatal(err)
			}
			pred := m.Snapshot()
			for _, g := range graphs {
				pred.Predict(g)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pred.Predict(graphs[i%len(graphs)])
			}
		})
	}
}
