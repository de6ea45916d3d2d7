package main

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"time"

	"graphhd/internal/core"
	"graphhd/internal/eval"
	"graphhd/internal/graph"
	"graphhd/internal/hdc"
	"graphhd/internal/serve"
)

const (
	// replayGraphs is how many graphs the request replay classifies at
	// least, cycling over its sample of requests.
	replayGraphs = 4096
	// replayRequests caps the distinct requests in the sample.
	replayRequests = 256
	// modelRounds is how many times the model-level replay (encoder, fit,
	// snapshot, PredictAll, online updates, fold split) runs.
	modelRounds = 3
	// onlineUpdates is how many OnlineUpdate calls one model round makes.
	onlineUpdates = 256
	// probeSeconds is how long paper-cv's traced run serves its last fold's
	// test graphs, to read the serving layers on its inputs.
	probeSeconds = 2
)

// replayIn is what the per-layer replay runs on.
type replayIn struct {
	cfg  core.Config
	rt   *serve.Router
	pred *core.Predictor // the model as trained from train
	// routerExact requires the router's answers to equal pred's; false
	// while an online trainer may have promoted another model.
	routerExact bool
	reqs        []op // predict requests, in the workload's request shape
	train, test *graph.Dataset
	labels      []int  // every label of the workload's dataset, for the fold split
	live        *phase // the phase the serving layers' /metrics deltas come from
}

// wireRequest decodes both predict body shapes.
type wireRequest struct {
	Graph  *graph.GraphJSON   `json:"graph"`
	Graphs []*graph.GraphJSON `json:"graphs"`
}

func (w *wireRequest) graphs() []*graph.GraphJSON {
	if w.Graph != nil {
		return []*graph.GraphJSON{w.Graph}
	}
	return w.Graphs
}

// decode runs the wire codec on one body: JSON, then graph build.
func decode(body []byte, tr *tracer, parent int32) ([]*graph.Graph, error) {
	var req wireRequest
	var err error
	tr.timed("graph.json", parent, func() { err = json.Unmarshal(body, &req) })
	if err != nil {
		return nil, err
	}
	ws := req.graphs()
	graphs := make([]*graph.Graph, len(ws))
	tr.timed("graph.build", parent, func() {
		for i, w := range ws {
			if graphs[i], err = w.Graph(graph.CodecLimits{}); err != nil {
				return
			}
		}
	})
	return graphs, err
}

// replay runs a fixed sample of the workload's inputs through each layer's
// public function on one goroutine, in pipeline order, recording spans in
// tr. It derives the per-layer metrics from those spans, the live spans
// already in tr and the live phase's /metrics deltas.
func replay(tr *tracer, in replayIn) (map[string]float64, error) {
	reqs := in.reqs[:min(len(in.reqs), replayRequests)]
	perRound := 0
	for _, o := range reqs {
		perRound += len(o.idx)
	}
	rounds := (replayGraphs + perRound - 1) / perRound

	// The codec's allocations, measured untraced over one round.
	p0 := readProc()
	for _, o := range reqs {
		if _, err := decode(o.body, nil, -1); err != nil {
			return nil, err
		}
	}
	codecAlloc := since(p0).alloc

	enc := in.pred.Encoder()
	es, bs := enc.NewScratch(), enc.NewBatchScratch()
	ctx := context.Background()
	var graphs, requests, direct, pairs, bodyBytes, maxN int
	for r := 0; r < rounds; r++ {
		for _, o := range reqs {
			root := tr.open("replay.request", -1)
			gs, err := decode(o.body, tr, root)
			if err != nil {
				return nil, err
			}
			n := len(gs)
			routed, batched, classified := make([]int, n), make([]int, n), make([]int, n)
			tr.timed("serve.router", root, func() {
				err = in.rt.PredictBatchInto(ctx, serve.DefaultTenant, "", gs, routed)
			})
			if err != nil {
				return nil, fmt.Errorf("replay: router: %w", err)
			}
			tr.timed("core.predict_batch", root, func() { in.pred.PredictBatchWith(bs, gs, batched) })
			predict := tr.open("core.predict", root)
			tr.timed("centrality.rank", predict, func() {
				for _, g := range gs {
					es.Ranks(g)
				}
			})
			var encs []*hdc.Binary
			tr.timed("core.encode", predict, func() { encs = bs.EncodeBatch(gs) })
			p, d := bs.PlanStats()
			tr.timed("core.classify", predict, func() {
				for i, e := range encs {
					classified[i] = in.pred.PredictEncoded(e)
				}
			})
			tr.close(predict)
			tr.close(root)

			if !slices.Equal(batched, classified) {
				return nil, fmt.Errorf("replay: PredictBatchWith and EncodeBatch+PredictEncoded disagree")
			}
			for i, c := range routed {
				if c < 0 || c >= in.pred.NumClasses() || in.routerExact && c != batched[i] {
					return nil, fmt.Errorf("replay: router answered %d, predictor %d", c, batched[i])
				}
			}
			graphs += n
			requests++
			if p == d {
				direct++
			}
			pairs += p
			bodyBytes += len(o.body)
			for _, g := range gs {
				maxN = max(maxN, g.NumVertices())
			}
		}
	}

	fitAlloc, err := replayModel(tr, in)
	if err != nil {
		return nil, err
	}

	spans := tr.snapshot()
	st := statsByName(spans)
	us := func(name string) float64 { return float64(st[name].total) / 1e3 }
	words := (in.cfg.Dimension + 63) / 64
	out := map[string]float64{
		"graph.json_us":          us("graph.json") / float64(graphs),
		"graph.build_us":         us("graph.build") / float64(graphs),
		"graph.alloc_kb":         float64(codecAlloc) / 1024 / float64(perRound),
		"graph.body_kb":          float64(bodyBytes) / 1024 / float64(graphs),
		"centrality.rank_us":     us("centrality.rank") / float64(graphs),
		"core.encode_us":         (us("core.encode") - us("centrality.rank")) / float64(graphs),
		"core.classify_us":       us("core.classify") / float64(graphs),
		"core.plan_direct_share": float64(direct) / float64(requests),
		"serve.router_us":        (us("serve.router") - us("core.predict_batch")) / float64(requests),
		"hdc.xor_words":          float64(pairs) / float64(graphs) * float64(words),
		"hdc.basis_kb":           float64(maxN*words*8) / 1024,
		"eval.split_us":          us("eval.split") / float64(st["eval.split"].n),
	}
	nTrain, nTest := len(in.train.Graphs), len(in.test.Graphs)
	out["core.encoder_new_ms"] = us("core.encoder_new") / 1e3 / modelRounds
	out["core.fit_us"] = us("core.fit") / float64(modelRounds*nTrain)
	out["core.snapshot_us"] = us("core.snapshot") / modelRounds
	out["core.predict_all_us"] = us("core.predict_all") / float64(modelRounds*nTest)
	out["core.online_update_us"] = us("core.online_update") / float64(modelRounds*min(onlineUpdates, nTest))
	out["core.fit_alloc_kb"] = float64(fitAlloc) / 1024 / float64(modelRounds*nTrain)
	liveLayers(out, in.live)
	net, n := netTime(spans)
	out["serve.net_us"] = float64(net) / 1e3 / float64(max(n, 1))
	out["serve.handler_us"] = us("serve.handler") / float64(max(st["serve.handler"].n, 1))
	return out, nil
}

// replayModel repeats the model's life cycle on the workload's training
// set: a new encoder, a fit, a snapshot, PredictAll over the test set,
// online updates on the fitted copy, and the fold split. It returns the
// heap bytes the Fit calls allocated.
func replayModel(tr *tracer, in replayIn) (fitAlloc uint64, err error) {
	want := in.pred.PredictAll(in.test.Graphs)
	k := in.pred.NumClasses()
	for r := 0; r < modelRounds; r++ {
		var enc *core.Encoder
		var m *core.Model
		tr.timed("core.encoder_new", -1, func() { enc, err = core.NewEncoder(in.cfg) })
		if err != nil {
			return 0, err
		}
		p0 := readProc()
		tr.timed("core.fit", -1, func() {
			if m, err = core.NewModel(enc, k); err == nil {
				err = m.Fit(in.train.Graphs, in.train.Labels)
			}
		})
		fitAlloc += since(p0).alloc
		if err != nil {
			return 0, err
		}
		var p *core.Predictor
		tr.timed("core.snapshot", -1, func() { p = m.Snapshot() })
		var got []int
		tr.timed("core.predict_all", -1, func() { got = p.PredictAll(in.test.Graphs) })
		if !slices.Equal(got, want) {
			return 0, fmt.Errorf("replay: refitting the same data gave different answers")
		}
		tr.timed("core.online_update", -1, func() {
			for i := 0; i < min(onlineUpdates, len(in.test.Graphs)) && err == nil; i++ {
				_, err = m.OnlineUpdate(in.test.Graphs[i], in.test.Labels[i])
			}
		})
		if err != nil {
			return 0, err
		}
		tr.timed("eval.split", -1, func() { _, err = eval.StratifiedKFold(in.labels, cvFolds, uint64(r)) })
		if err != nil {
			return 0, err
		}
	}
	return fitAlloc, nil
}

// liveLayers derives the serving layers' metrics from a phase's /metrics
// deltas.
func liveLayers(out map[string]float64, ph *phase) {
	model := `model="default"`
	d := func(name string, want ...string) float64 {
		want = append(want, model)
		return series(ph.scrape[1], name, want...) - series(ph.scrape[0], name, want...)
	}
	out["serve.engine_us"] = 1e6 * ratio(d("graphhd_request_latency_seconds_sum"), d("graphhd_request_latency_seconds_count"))
	out["serve.queue_wait_us"] = 1e6 * ratio(d("graphhd_queue_wait_seconds_sum"), d("graphhd_queue_wait_seconds_count"))
	out["serve.batch_size"] = ratio(d("graphhd_batch_size_sum"), d("graphhd_batch_size_count"))
	processed := d("graphhd_graphs_processed_total")
	for _, stage := range []string{"plan", "encode", "classify"} {
		out["serve.stage_"+stage+"_us"] = 1e6 * ratio(d("graphhd_stage_seconds_sum", `stage="`+stage+`"`), processed)
	}
	out["core.plan_dedup"] = ratio(d("graphhd_batch_plan_pairs_total"), d("graphhd_batch_plan_distinct_total"))
	out["serve.rejected"] = d("graphhd_rejected_total") +
		series(ph.scrape[1], "graphhd_quota_rejected_total") - series(ph.scrape[0], "graphhd_quota_rejected_total")
	out["serve.trainer_dropped"] = d("graphhd_feedback_dropped_total")
	out["serve.shadow_dropped"] = d("graphhd_shadow_dropped_total")
	fed := d("graphhd_feedback_ingested_total")
	for name, family := range map[string]string{
		"serve.trainer_updates":    "graphhd_trainer_updates_total",
		"serve.trainer_snapshots":  "graphhd_trainer_snapshots_total",
		"serve.trainer_promotions": "graphhd_trainer_promotions_total",
		"serve.trainer_rollbacks":  "graphhd_trainer_rollbacks_total",
		"serve.shadow_mirrored":    "graphhd_shadow_mirrored_total",
	} {
		out[name] = 1000 * ratio(d(family), fed)
	}
	out["serve.trainer_promote_share"] = ratio(d("graphhd_trainer_promotions_total"), d("graphhd_trainer_snapshots_total"))
}

func (w *serveWorkload) layers(tr *tracer, untraced *phase) (map[string]float64, error) {
	var reqs []op
	for _, o := range w.traffic.ops {
		if !o.feedback {
			reqs = append(reqs, o)
		}
	}
	return replay(tr, replayIn{
		cfg: w.cfg, rt: w.st.rt, pred: w.pred,
		reqs: reqs, train: w.train, test: w.test,
		labels: append(slices.Clone(w.train.Labels), w.test.Labels...),
		live:   untraced,
	})
}

// layers serves the last fold's test graphs for probeSeconds, traced, so
// the serving layers are read on paper-cv's inputs too, then replays the
// fold's test set in PredictAll's chunks.
func (w *paperCV) layers(tr *tracer, _ *phase) (map[string]float64, error) {
	test := w.last.test
	t := &traffic{graphs: test.Graphs, labels: test.Labels, k: w.last.pred.NumClasses(),
		ref: make([]int, len(test.Graphs))}
	for i, g := range test.Graphs {
		t.ref[i] = w.last.pred.Predict(g)
		o, err := predictOp(test.Graphs, []int{i})
		if err != nil {
			return nil, err
		}
		t.ops = append(t.ops, o)
	}
	st, err := startStack(w.last.pred, nil)
	if err != nil {
		return nil, err
	}
	defer st.close()
	if warm := st.loop(t, len(t.ops), 0, nil); warm.failed > 0 {
		return nil, fmt.Errorf("serve probe warm-up: %d of %d requests failed", warm.failed, warm.attempted)
	}
	probe, err := st.drive(t, 0, probeSeconds*time.Second, tr)
	if err != nil {
		return nil, err
	}
	if probe.wrong > 0 || probe.failed > 0 {
		return nil, fmt.Errorf("serve probe: %d of %d requests failed", probe.failed, probe.attempted)
	}

	var chunks []op
	for lo := 0; lo < len(test.Graphs); lo += predictChunk {
		idx := make([]int, 0, predictChunk)
		for i := lo; i < min(lo+predictChunk, len(test.Graphs)); i++ {
			idx = append(idx, i)
		}
		o, err := predictOp(test.Graphs, idx)
		if err != nil {
			return nil, err
		}
		chunks = append(chunks, o)
	}
	return replay(tr, replayIn{
		cfg: w.cfg, rt: st.rt, pred: w.last.pred, routerExact: true,
		reqs: chunks, train: w.last.train, test: test, labels: w.ds.Labels,
		live: probe,
	})
}
