// Benchmark harness regenerating every table and figure of the paper's
// evaluation (see DESIGN.md §4 for the experiment index):
//
//	BenchmarkTable1Stats        — Table I dataset statistics
//	BenchmarkFig3/...           — Fig 3: per-fold train + per-graph infer
//	                              time and accuracy, 6 datasets × 5 methods
//	BenchmarkFig4Scaling/...    — Fig 4: training-time scaling profile
//	BenchmarkAblation*/...      — A1–A5 ablations and extensions
//	BenchmarkEncode*, etc.      — substrate micro-benchmarks
//
// Benchmarks run on reduced dataset sizes (quick mode) so the full suite
// finishes in minutes; the cmd/fig3 and cmd/fig4 binaries run the
// paper-scale protocol. Custom metrics: "acc" is fold accuracy,
// "infer-ns/graph" is per-graph inference latency.
package graphhd_test

import (
	"fmt"
	"testing"
	"time"

	"graphhd"
	"graphhd/internal/core"
	"graphhd/internal/dataset"
	"graphhd/internal/eval"
	"graphhd/internal/experiments"
	"graphhd/internal/graph"
	"graphhd/internal/hdc"
	"graphhd/internal/pagerank"
	"graphhd/internal/wl"
)

// benchGraphCount keeps the quadratic kernel baselines affordable while
// leaving every code path identical to the paper-scale runs.
const benchGraphCount = 60

// --- Table I -------------------------------------------------------------

func BenchmarkTable1Stats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunTable1(1, benchGraphCount)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 6 {
			b.Fatal("missing datasets")
		}
	}
}

// --- Figure 3 ------------------------------------------------------------

// benchFold returns a deterministic 80/20 train/test split of ds.
func benchFold(ds *graph.Dataset) (train, test *graph.Dataset) {
	folds, err := eval.StratifiedKFold(ds.Labels, 5, 0xbe4c)
	if err != nil {
		panic(err)
	}
	var trainIdx []int
	for _, f := range folds[1:] {
		trainIdx = append(trainIdx, f...)
	}
	return ds.Subset(trainIdx), ds.Subset(folds[0])
}

func BenchmarkFig3(b *testing.B) {
	for _, name := range dataset.Names() {
		ds := dataset.MustGenerate(name, dataset.Options{Seed: 1, GraphCount: benchGraphCount})
		train, test := benchFold(ds)
		for _, method := range experiments.MethodNames {
			b.Run(fmt.Sprintf("%s/%s", name, method), func(b *testing.B) {
				var acc float64
				var inferNs float64
				for i := 0; i < b.N; i++ {
					clf, err := experiments.NewClassifier(method, 7, true)
					if err != nil {
						b.Fatal(err)
					}
					// The timed body is one fold of training, the Fig 3
					// (middle) quantity.
					if err := clf.Fit(train.Graphs, train.Labels); err != nil {
						b.Fatal(err)
					}
					b.StopTimer()
					preds, dt := timedPredict(clf, test.Graphs)
					acc = eval.Accuracy(preds, test.Labels)
					inferNs = float64(dt) / float64(len(test.Graphs))
					b.StartTimer()
				}
				b.ReportMetric(acc, "acc")
				b.ReportMetric(inferNs, "infer-ns/graph")
			})
		}
	}
}

// --- Figure 4 ------------------------------------------------------------

func BenchmarkFig4Scaling(b *testing.B) {
	sizes := []int{20, 80, 320, 980}
	for _, method := range []string{"GraphHD", "GIN-e", "WL-OA"} {
		for _, n := range sizes {
			// The two slow baselines stop at 320 vertices in the bench
			// suite; cmd/fig4 runs the full sweep.
			if n > 320 && method != "GraphHD" {
				continue
			}
			ds := dataset.Scaling(n, 30, 1)
			b.Run(fmt.Sprintf("%s/n=%d", method, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					clf, err := experiments.NewClassifier(method, 7, true)
					if err != nil {
						b.Fatal(err)
					}
					if err := clf.Fit(ds.Graphs, ds.Labels); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- Ablations (A1–A5) ----------------------------------------------------

func BenchmarkAblationDimension(b *testing.B) {
	ds := dataset.MustGenerate("MUTAG", dataset.Options{Seed: 1, GraphCount: benchGraphCount})
	train, test := benchFold(ds)
	for _, dim := range []int{512, 2048, 10000} {
		b.Run(fmt.Sprintf("d=%d", dim), func(b *testing.B) {
			var acc float64
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig()
				cfg.Dimension = dim
				m, err := core.Train(cfg, train.Graphs, train.Labels)
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				acc = eval.Accuracy(m.PredictAll(test.Graphs), test.Labels)
				b.StartTimer()
			}
			b.ReportMetric(acc, "acc")
		})
	}
}

func BenchmarkAblationPageRankIters(b *testing.B) {
	ds := dataset.MustGenerate("ENZYMES", dataset.Options{Seed: 1, GraphCount: 2 * benchGraphCount})
	train, test := benchFold(ds)
	for _, iters := range []int{1, 5, 10, 20} {
		b.Run(fmt.Sprintf("iters=%d", iters), func(b *testing.B) {
			var acc float64
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig()
				cfg.Dimension = 2048
				cfg.PageRankIterations = iters
				m, err := core.Train(cfg, train.Graphs, train.Labels)
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				acc = eval.Accuracy(m.PredictAll(test.Graphs), test.Labels)
				b.StartTimer()
			}
			b.ReportMetric(acc, "acc")
		})
	}
}

func BenchmarkExtensionRetraining(b *testing.B) {
	ds := dataset.MustGenerate("NCI1", dataset.Options{Seed: 1, GraphCount: benchGraphCount})
	train, test := benchFold(ds)
	for _, epochs := range []int{0, 5, 20} {
		b.Run(fmt.Sprintf("epochs=%d", epochs), func(b *testing.B) {
			var acc float64
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig()
				cfg.Dimension = 2048
				m, err := core.Train(cfg, train.Graphs, train.Labels)
				if err != nil {
					b.Fatal(err)
				}
				if epochs > 0 {
					if _, err := m.Retrain(train.Graphs, train.Labels, core.RetrainOptions{Epochs: epochs}); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				acc = eval.Accuracy(m.PredictAll(test.Graphs), test.Labels)
				b.StartTimer()
			}
			b.ReportMetric(acc, "acc")
		})
	}
}

func BenchmarkExtensionLabels(b *testing.B) {
	for _, useLabels := range []bool{false, true} {
		b.Run(fmt.Sprintf("labels=%v", useLabels), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cells, err := experiments.RunLabelExtension(benchGraphCount, 3)
				if err != nil {
					b.Fatal(err)
				}
				want := fmt.Sprint(useLabels)
				for _, c := range cells {
					if c.Value == want {
						b.ReportMetric(c.Accuracy, "acc")
					}
				}
			}
		})
	}
}

// BenchmarkAblationBackend times A5 as cmd/ablations -run backend does:
// RunBackendComparison encodes PROTEINS graphs through the int8 reference
// and the bit-sliced pipeline, and each leg's encode time per run is
// reported as "<leg>-ns".
func BenchmarkAblationBackend(b *testing.B) {
	totals := map[string]time.Duration{}
	for i := 0; i < b.N; i++ {
		cells, err := experiments.RunBackendComparison(20, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range cells {
			totals[c.Value] += c.TrainTime
		}
	}
	for leg, total := range totals {
		b.ReportMetric(float64(total.Nanoseconds())/float64(b.N), leg+"-ns")
	}
}

// --- substrate micro-benchmarks -------------------------------------------

func BenchmarkEncodeGraph(b *testing.B) {
	enc := core.MustNewEncoder(core.DefaultConfig())
	for _, n := range []int{20, 100, 500} {
		g := graph.ErdosRenyi(n, 0.05, hdc.NewRNG(1))
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				enc.EncodeGraph(g)
			}
		})
	}
}

// BenchmarkEncodeGraphScratch is BenchmarkEncodeGraph on a reused
// EncoderScratch — the steady-state serving path, 0 allocs/op.
func BenchmarkEncodeGraphScratch(b *testing.B) {
	enc := core.MustNewEncoder(core.DefaultConfig())
	for _, n := range []int{20, 100, 500} {
		g := graph.ErdosRenyi(n, 0.05, hdc.NewRNG(1))
		s := enc.NewScratch()
		s.EncodeGraphPacked(g)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.EncodeGraphPacked(g)
			}
		})
	}
}

func BenchmarkBindBipolar(b *testing.B) {
	rng := hdc.NewRNG(1)
	v := hdc.RandomBipolar(10000, rng)
	w := hdc.RandomBipolar(10000, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Bind(w)
	}
}

func BenchmarkBindBinary(b *testing.B) {
	rng := hdc.NewRNG(1)
	v := hdc.RandomBinary(10000, rng)
	w := hdc.RandomBinary(10000, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Bind(w)
	}
}

func BenchmarkCosine(b *testing.B) {
	rng := hdc.NewRNG(1)
	v := hdc.RandomBipolar(10000, rng)
	w := hdc.RandomBipolar(10000, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Cosine(w)
	}
}

func BenchmarkPageRank(b *testing.B) {
	for _, n := range []int{50, 500} {
		g := graph.ErdosRenyi(n, 0.05, hdc.NewRNG(1))
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pagerank.Ranks(g, pagerank.Options{})
			}
		})
	}
}

// BenchmarkPageRankInto is BenchmarkPageRank through the caller-owned
// buffer API — zero allocations once the scratch has warmed.
func BenchmarkPageRankInto(b *testing.B) {
	for _, n := range []int{50, 500} {
		g := graph.ErdosRenyi(n, 0.05, hdc.NewRNG(1))
		var s pagerank.Scratch
		dst := pagerank.RanksInto(g, pagerank.Options{}, nil, &s)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dst = pagerank.RanksInto(g, pagerank.Options{}, dst, &s)
			}
		})
	}
}

func BenchmarkWLRefine(b *testing.B) {
	var gs []*graph.Graph
	rng := hdc.NewRNG(1)
	for i := 0; i < 30; i++ {
		gs = append(gs, graph.ErdosRenyi(40, 0.08, rng))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wl.Refine(gs, wl.Options{Iterations: 3})
	}
}

func BenchmarkGraphHDTrainFull(b *testing.B) {
	ds := graphhd.MustGenerateDataset("MUTAG", graphhd.DatasetOptions{Seed: 1, GraphCount: 100})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := graphhd.Train(graphhd.DefaultConfig(), ds.Graphs, ds.Labels); err != nil {
			b.Fatal(err)
		}
	}
}

// timedPredict measures wall-clock prediction like the harness does.
func timedPredict(clf eval.Classifier, gs []*graph.Graph) ([]int, time.Duration) {
	t0 := time.Now()
	preds := clf.PredictAll(gs)
	return preds, time.Since(t0)
}

func BenchmarkNoiseRobustness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells, err := experiments.RunNoiseRobustness([]float64{0, 0.2, 0.4}, 40, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cells[0].Accuracy, "acc-clean")
		b.ReportMetric(cells[1].Accuracy, "acc-20pct")
	}
}

func BenchmarkAblationCentrality(b *testing.B) {
	ds := dataset.MustGenerate("ENZYMES", dataset.Options{Seed: 1, GraphCount: 2 * benchGraphCount})
	train, test := benchFold(ds)
	for _, metric := range []graphhd.CentralityMetric{
		graphhd.CentralityPageRank, graphhd.CentralityDegree,
		graphhd.CentralityEigenvector, graphhd.CentralityCloseness,
	} {
		b.Run(metric.String(), func(b *testing.B) {
			var acc float64
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig()
				cfg.Dimension = 2048
				cfg.Centrality = metric
				m, err := core.Train(cfg, train.Graphs, train.Labels)
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				acc = eval.Accuracy(m.PredictAll(test.Graphs), test.Labels)
				b.StartTimer()
			}
			b.ReportMetric(acc, "acc")
		})
	}
}
