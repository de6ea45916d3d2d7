package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"graphhd/internal/core"
	"graphhd/internal/dataset"
	"graphhd/internal/graph"
)

// The serving benchmarks run at paper scale (d = 10,000) on a synthetic
// MUTAG model; the ROADMAP server-side baseline quotes these numbers.

// BenchmarkServePredict measures the steady-state single-request path
// through the full engine — admission, slot wait, inline encode +
// classify — from one client goroutine. The interesting number besides
// ns/op is allocs/op: the engine itself must add zero.
func BenchmarkServePredict(b *testing.B) {
	ds := dataset.MustGenerate("MUTAG", dataset.Options{Seed: 7, GraphCount: 48})
	cfg := core.DefaultConfig()
	m, err := core.Train(cfg, ds.Graphs, ds.Labels)
	if err != nil {
		b.Fatal(err)
	}
	pred := m.Snapshot()
	e, err := NewEngine(pred, Options{Workers: 2, MaxBatch: 16})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	g := ds.Graphs[0]
	ctx := context.Background()
	if _, err := e.Predict(ctx, g); err != nil { // warm scratches and pools
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Predict(ctx, g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServePredictParallel is the throughput shape: GOMAXPROCS
// client goroutines send single graphs at once against the default
// GOMAXPROCS encode slots, so every slot stays busy.
func BenchmarkServePredictParallel(b *testing.B) {
	ds := dataset.MustGenerate("MUTAG", dataset.Options{Seed: 7, GraphCount: 48})
	cfg := core.DefaultConfig()
	m, err := core.Train(cfg, ds.Graphs, ds.Labels)
	if err != nil {
		b.Fatal(err)
	}
	pred := m.Snapshot()
	e, err := NewEngine(pred, Options{MaxBatch: 64})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	ctx := context.Background()
	if _, err := e.Predict(ctx, ds.Graphs[0]); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := e.Predict(ctx, ds.Graphs[i%len(ds.Graphs)]); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}

// BenchmarkServePredictOversubscribed sends single NCI1 graphs from
// 8·GOMAXPROCS goroutines, more callers than encode slots, once at the
// default slot count and once at one slot. graphs/encode is the mean
// number of graphs per encode call, 1 when nothing is coalesced. With one
// slot below GOMAXPROCS, callers on the spare cores queue for the slot:
// the traffic an engine that coalesces waiting singles would batch
// (DESIGN §4).
func BenchmarkServePredictOversubscribed(b *testing.B) {
	ds := dataset.MustGenerate("NCI1", dataset.Options{Seed: 7, GraphCount: 256})
	m, err := core.Train(core.DefaultConfig(), ds.Graphs, ds.Labels)
	if err != nil {
		b.Fatal(err)
	}
	pred := m.Snapshot()
	for _, c := range []struct {
		name    string
		workers int
	}{{"default-slots", 0}, {"one-slot", 1}} {
		b.Run(c.name, func(b *testing.B) {
			e, err := NewEngine(pred, Options{Workers: c.workers})
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			ctx := context.Background()
			if _, err := e.Predict(ctx, ds.Graphs[0]); err != nil {
				b.Fatal(err)
			}
			m0 := e.Metrics()
			b.ReportAllocs()
			b.SetParallelism(8)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					if _, err := e.Predict(ctx, ds.Graphs[i%len(ds.Graphs)]); err != nil {
						b.Error(err)
						return
					}
					i++
				}
			})
			b.StopTimer()
			m1 := e.Metrics()
			b.ReportMetric(float64(m1.Processed-m0.Processed)/float64(m1.BatchSize.Count-m0.BatchSize.Count), "graphs/encode")
		})
	}
}

// BenchmarkHTTPPredict is one POST /v1/predict through NewHandler, with
// no network in between, over NCI1-shaped bodies: JSON decode, graph
// build, router, engine and response encode. Its distance from
// BenchmarkServePredict is what the wire front end costs per request.
func BenchmarkHTTPPredict(b *testing.B) {
	ds := dataset.MustGenerate("NCI1", dataset.Options{Seed: 7, GraphCount: 256})
	m, err := core.Train(core.DefaultConfig(), ds.Graphs, ds.Labels)
	if err != nil {
		b.Fatal(err)
	}
	reg := NewRegistry(RegistryOptions{Engine: Options{Workers: 2, MaxBatch: 16}})
	if err := reg.Load("default", m.Snapshot()); err != nil {
		b.Fatal(err)
	}
	defer reg.Close()
	h := NewHandler(NewRouter(reg, RouterOptions{}), HandlerOptions{})
	bodies := make([][]byte, len(ds.Graphs))
	for i, g := range ds.Graphs {
		if bodies[i], err = json.Marshal(PredictRequest{Graph: graph.ToJSON(g)}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(bodies[i%len(bodies)])))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		i++
	}
}

// BenchmarkServePredictBatch measures the amortized per-graph cost of the
// batch endpoint's engine path (one call, 32 graphs).
func BenchmarkServePredictBatch(b *testing.B) {
	ds := dataset.MustGenerate("MUTAG", dataset.Options{Seed: 7, GraphCount: 48})
	cfg := core.DefaultConfig()
	m, err := core.Train(cfg, ds.Graphs, ds.Labels)
	if err != nil {
		b.Fatal(err)
	}
	pred := m.Snapshot()
	e, err := NewEngine(pred, Options{MaxBatch: 64})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	ctx := context.Background()
	graphs := ds.Graphs[:32]
	out := make([]int, len(graphs))
	if err := e.PredictBatchInto(ctx, graphs, out); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.PredictBatchInto(ctx, graphs, out); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportStageMedians(b, e.Metrics())
}

// reportStageMedians stamps the per-batch stage-clock medians into the
// benchmark output; CI carries them into the BENCH artifact via
// cmd/benchjson, so a perf regression names its stage instead of hiding
// in the aggregate ns/op.
func reportStageMedians(b *testing.B, m Metrics) {
	b.ReportMetric(m.StagePlan.Quantile(0.5)*1e9, "plan-p50-ns")
	b.ReportMetric(m.StageEncode.Quantile(0.5)*1e9, "encode-p50-ns")
	b.ReportMetric(m.StageClassify.Quantile(0.5)*1e9, "classify-p50-ns")
}

// BenchmarkRouterPredictBatch is BenchmarkServePredictBatch through the
// full registry→router path (model lookup, tenant admission) with one
// model — the same 32-graph workload,
// so the delta between the two benchmarks in one run is the router's
// added overhead. The acceptance bound is ≤10% over the direct engine
// path.
func BenchmarkRouterPredictBatch(b *testing.B) {
	ds := dataset.MustGenerate("MUTAG", dataset.Options{Seed: 7, GraphCount: 48})
	cfg := core.DefaultConfig()
	m, err := core.Train(cfg, ds.Graphs, ds.Labels)
	if err != nil {
		b.Fatal(err)
	}
	pred := m.Snapshot()
	reg := NewRegistry(RegistryOptions{Engine: Options{MaxBatch: 64}})
	defer reg.Close()
	if err := reg.Load("default", pred); err != nil {
		b.Fatal(err)
	}
	rt := NewRouter(reg, RouterOptions{})
	ctx := context.Background()
	graphs := ds.Graphs[:32]
	out := make([]int, len(graphs))
	if err := rt.PredictBatchInto(ctx, DefaultTenant, "", graphs, out); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rt.PredictBatchInto(ctx, DefaultTenant, "", graphs, out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainerIngest measures the trainer's per-sample drain cost —
// encode, classify, and the corrective perceptron update when the model
// disagrees with the label — by calling the goroutine-owned ingest step
// directly. This is the ceiling on sustainable feedback throughput per
// trainer (one sample per op; every HoldoutEvery-th diverts to the
// holdout ring instead, as in production).
func BenchmarkTrainerIngest(b *testing.B) {
	ds := dataset.MustGenerate("MUTAG", dataset.Options{Seed: 7, GraphCount: 48})
	cfg := core.DefaultConfig()
	m, err := core.Train(cfg, ds.Graphs, ds.Labels)
	if err != nil {
		b.Fatal(err)
	}
	tr := &Trainer{model: m, opts: TrainerOptions{SnapshotEvery: 1 << 30}.withDefaults(),
		buf: make(chan feedbackSample, 1), stop: make(chan struct{})}
	tr.holdout = make([]feedbackSample, 0, tr.opts.HoldoutCap)
	tr.ingest(feedbackSample{g: ds.Graphs[0], label: ds.Labels[0]})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(ds.Graphs)
		tr.ingest(feedbackSample{g: ds.Graphs[j], label: ds.Labels[j]})
	}
}
