// Command perfbench is the repository's end-to-end benchmark. One run
// drives one workload through the program's public functions at their
// defaults, checks every answer, prints each metric with its unit and
// sample count, and ends with one JSON result line.
//
//	bash perfbench/run.sh --workload paper-cv --seed 1 --seconds 40 --trace 0
//
// Workloads (BENCHMARK.json records why each was chosen):
//
//	paper-cv      NCI1 at paper scale, repeated stratified 10-fold CV
//	serve-online  single-graph HTTP predicts, every 10th request a
//	              feedback sample for the attached online trainer
//
// Set-up (data generation, training, server start and an untimed warm-up)
// runs setupRuns times and its median is reported as setup_s. With
// --trace 0 the run then measures the timed phase and reports the
// end-to-end metrics. With --trace 1 it measures the timed phase twice,
// untraced and then with spans on, replays a sample of the inputs through
// each layer, and reports the per-layer metrics and the tracing overhead;
// the spans are written to the --out directory.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"graphhd/internal/hdc"
)

// setupRuns is how many times set-up is repeated; setup_s is their median.
const setupRuns = 30

// metricDef names a reported metric and its unit. The lists below are the
// contract BENCHMARK.json declares (TestBenchmarkJSONMatches checks it).
// moves names the end-to-end metric and workload a per-layer metric
// should move; the traced run prints it beside the value.
type metricDef struct{ name, unit, moves string }

var endToEnd = []metricDef{
	{"setup_s", "s", ""},
	{"graphs_per_s", "1/s", ""},
	{"train_graphs_per_s", "1/s", ""},
	{"latency_p50_us", "us", ""},
	{"latency_p90_us", "us", ""},
	{"cpu_us_per_graph", "us", ""},
	{"alloc_kb_per_graph", "KB", ""},
	{"heap_live_mb", "MB", ""},
	{"accuracy", "ratio", ""},
	{"success_rate", "ratio", ""},
}

const (
	movesWire    = "latency_p50_us, graphs_per_s on serve-online; no change on paper-cv"
	movesFit     = "train_graphs_per_s, latency_p50_us, cpu_us_per_graph, alloc_kb_per_graph on paper-cv"
	movesEngine  = "latency_p50_us, latency_p90_us, graphs_per_s on serve-online"
	movesTrainer = "cpu_us_per_graph, latency_p90_us on serve-online"
	movesShed    = "success_rate on serve-online"
)

var perLayer = []metricDef{
	{"graph.json_us", "us", movesWire},
	{"graph.build_us", "us", movesWire},
	{"graph.alloc_kb", "KB", "alloc_kb_per_graph on serve-online"},
	{"graph.body_kb", "KB", "alloc_kb_per_graph on serve-online"},
	{"centrality.rank_us", "us", "graphs_per_s, train_graphs_per_s on paper-cv; graphs_per_s on serve-online"},
	{"core.encode_us", "us", "graphs_per_s, mostly on paper-cv; serve-online"},
	{"core.classify_us", "us", "graphs_per_s, mostly on paper-cv; serve-online"},
	{"core.plan_dedup", "ratio", "graphs_per_s on serve-online, whose ~1-graph batches leave the plan little to merge; paper-cv bypasses it"},
	{"core.plan_direct_share", "ratio", "graphs_per_s on serve-online, whose ~1-graph batches leave the plan little to merge; paper-cv bypasses it"},
	{"core.fit_us", "us", movesFit},
	{"core.encoder_new_ms", "ms", movesFit},
	{"core.snapshot_us", "us", movesFit},
	{"core.fit_alloc_kb", "KB", movesFit},
	{"core.predict_all_us", "us", "graphs_per_s on paper-cv"},
	{"core.online_update_us", "us", movesTrainer},
	{"hdc.xor_words", "count", "none: the work behind core.encode_us, all workloads"},
	{"hdc.basis_kb", "KB", "none: the working set behind core.encode_us, all workloads"},
	{"eval.split_us", "us", "setup_s on paper-cv"},
	{"serve.net_us", "us", "latency_p50_us on serve-online"},
	{"serve.handler_us", "us", "latency_p50_us on serve-online"},
	{"serve.router_us", "us", "latency_p50_us on serve-online"},
	{"serve.engine_us", "us", movesEngine},
	{"serve.queue_wait_us", "us", movesEngine},
	{"serve.batch_size", "count", movesEngine},
	{"serve.stage_plan_us", "us", movesEngine},
	{"serve.stage_encode_us", "us", movesEngine},
	{"serve.stage_classify_us", "us", movesEngine},
	{"serve.rejected", "count", movesShed},
	{"serve.trainer_dropped", "count", movesShed},
	{"serve.shadow_dropped", "count", movesShed},
	{"serve.trainer_updates", "1/kfeedback", movesTrainer},
	{"serve.trainer_snapshots", "1/kfeedback", movesTrainer},
	{"serve.trainer_promotions", "1/kfeedback", movesTrainer},
	{"serve.trainer_rollbacks", "1/kfeedback", movesTrainer},
	{"serve.trainer_promote_share", "ratio", movesTrainer},
	{"serve.shadow_mirrored", "1/kfeedback", movesTrainer},
	{"go.gc_per_kgraph", "1/kgraph", "latency_p90_us, cpu_us_per_graph on all workloads"},
	{"go.gc_cpu_fraction", "ratio", "latency_p90_us, cpu_us_per_graph on all workloads"},
	{"host.steal_pct", "%", "none: a noise witness, never gated"},
	{"trace.overhead_pct", "%", "none: the traced run's own cost"},
}

// workload is one set-up instance of a workload, ready to be measured.
type workload interface {
	// timed runs the measured phase for d. A non-nil tr records spans.
	timed(d time.Duration, tr *tracer) (*phase, error)
	// layers measures the per-layer metrics after the timed phases: the
	// serving layers' counters from untraced, spans from the traced phase
	// and from a replay, both recorded in tr.
	layers(tr *tracer, untraced *phase) (map[string]float64, error)
	close()
}

// setupFunc builds a workload from its seed and reports the training it
// did, as graphs trained and wall time inside core.Train.
type setupFunc func(seed uint64) (workload, int, time.Duration, error)

var workloads = map[string]setupFunc{
	"paper-cv":     setupPaperCV,
	"serve-online": setupOnline,
}

// phase is what one measured phase did and cost. Its metrics are
// whole-phase aggregates: a rate is the work done over the wall time it
// took, a per-graph cost the cost over the graphs processed.
type phase struct {
	wall       time.Duration // wall time of the classifying work
	trainWall  time.Duration // wall time inside core.Train (paper-cv)
	classified int           // graphs answered
	correct    int           // answers equal to the true label
	trained    int           // graphs trained on or fed back
	attempted  int
	failed     int
	wrong      int                   // failed operations whose answer failed the output check
	lat        []float64             // latency samples, µs
	work       cost                  // process cost of the measured sections
	whole      cost                  // process cost of the whole phase
	heapMB     float64               // live heap after the phase
	scrape     [2]map[string]float64 // /metrics before and after (serve)
}

func (p *phase) processed() int { return p.classified + p.trained }

// report is the ordered set of metrics a run prints.
type report struct {
	defs    []metricDef
	values  map[string]float64
	samples map[string]string // what the value was measured over
}

func newReport(defs []metricDef) *report {
	return &report{defs: defs, values: map[string]float64{}, samples: map[string]string{}}
}

func (r *report) set(name string, v float64, samples string) {
	r.values[name] = v
	r.samples[name] = samples
}

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: paper-cv or serve-online")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed phase in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced per-layer measurement")
	flag.StringVar(&cfg.out, "out", ".bench_build", "directory the traced run writes its spans to")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func run(cfg config) (*result, error) {
	setup, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	fmt.Printf("workload %s seed %d seconds %g trace %v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Printf("witness go %s GOMAXPROCS %d kernel %s\n", runtime.Version(), runtime.GOMAXPROCS(0), hdc.ActiveKernel())

	var w workload
	setups := make([]float64, 0, setupRuns)
	trainRates := make([]float64, 0, setupRuns)
	for i := 0; i < setupRuns; i++ {
		if w != nil {
			w.close()
		}
		t0 := time.Now()
		var trained int
		var trainWall time.Duration
		var err error
		w, trained, trainWall, err = setup(cfg.seed)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		trainRates = append(trainRates, ratio(float64(trained), trainWall.Seconds()))
	}
	defer w.close()
	d := time.Duration(cfg.seconds * float64(time.Second))

	ph, err := w.timed(d, nil)
	if err != nil {
		return nil, err
	}
	e2e, err := endToEndReport(ph, setups, trainRates)
	if err != nil {
		return nil, err
	}
	fmt.Printf("witness steal_pct %.3f gcs %d\n", ph.whole.stealPct(), ph.whole.gcs)
	rep := e2e
	if cfg.trace {
		e2e.print("untraced")
		tr := newTracer()
		traced, err := w.timed(d, tr)
		if err != nil {
			return nil, err
		}
		layers, err := w.layers(tr, ph)
		if err != nil {
			return nil, err
		}
		rep = newReport(perLayer)
		rep.set("trace.overhead_pct", 100*ratio(gps(ph)-gps(traced), gps(ph)),
			fmt.Sprintf("untraced %.6g, traced %.6g graphs/s", gps(ph), gps(traced)))
		addProcessLayers(rep, ph)
		for name, v := range layers {
			rep.set(name, v, "")
		}
		for _, def := range perLayer {
			if _, ok := rep.values[def.name]; !ok {
				return nil, fmt.Errorf("per-layer metric %s not measured", def.name)
			}
		}
		spans := tr.snapshot()
		if err := os.MkdirAll(cfg.out, 0o755); err != nil {
			return nil, err
		}
		path := spanFile(cfg.out, cfg.workload, cfg.seed)
		if err := write(path, spans); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		fmt.Printf("spans %d written to %s\n", len(spans), path)
		// Outputs of the traced phase are checked like the untraced ones.
		ph.attempted += traced.attempted
		ph.failed += traced.failed
		ph.wrong += traced.wrong
	}
	rep.print("metric")
	if ph.failed > 0 {
		fmt.Printf("FAILED: %d of %d operations failed, %d of them with a wrong answer\n", ph.failed, ph.attempted, ph.wrong)
	}
	return newResult(ph, rep), nil
}

// newResult is the run's result line. Nothing in the workloads' set-up can
// legitimately refuse an operation (2 closed-loop callers, default queue
// and feedback buffer, no tenant quota), so any failed operation, not only
// a wrong answer, marks the run incorrect.
func newResult(ph *phase, rep *report) *result {
	res := &result{
		Correct:   ph.failed == 0,
		Attempted: ph.attempted,
		Failed:    ph.failed,
		Metrics:   map[string]value{},
	}
	for _, def := range rep.defs {
		res.Metrics[def.name] = value{Value: rep.values[def.name], Unit: def.unit}
	}
	return res
}

// gps is a phase's graphs classified per wall second.
func gps(p *phase) float64 { return ratio(float64(p.classified), p.wall.Seconds()) }

// endToEndReport derives the end-to-end metrics from one untraced phase
// and the set-up repetitions.
func endToEndReport(ph *phase, setups, trainRates []float64) (*report, error) {
	r := newReport(endToEnd)
	r.set("setup_s", median(setups), fmt.Sprintf("median of %d set-ups", len(setups)))
	if ph.classified == 0 {
		return nil, errors.New("the timed phase classified no graphs")
	}
	r.set("graphs_per_s", gps(ph), fmt.Sprintf("%d graphs in %.3f s", ph.classified, ph.wall.Seconds()))
	if ph.trainWall > 0 {
		r.set("train_graphs_per_s", ratio(float64(ph.trained), ph.trainWall.Seconds()),
			fmt.Sprintf("%d graphs in %.3f s", ph.trained, ph.trainWall.Seconds()))
	} else {
		r.set("train_graphs_per_s", median(trainRates), fmt.Sprintf("median of %d set-ups", len(trainRates)))
	}
	for _, q := range []struct {
		name string
		q    float64
	}{{"latency_p50_us", 0.5}, {"latency_p90_us", 0.9}} {
		v, beyond, ok := percentile(ph.lat, q.q)
		if !ok {
			return nil, fmt.Errorf("%s: %d samples leave %d beyond it, need %d", q.name, len(ph.lat), beyond, minBeyond)
		}
		r.set(q.name, v, fmt.Sprintf("n=%d", len(ph.lat)))
	}
	processed := fmt.Sprintf("n=%d graphs", ph.processed())
	cpu, err := perGraph(float64(ph.work.cpu.Nanoseconds())/1e3, ph.processed())
	if err != nil {
		return nil, err
	}
	r.set("cpu_us_per_graph", cpu, processed)
	alloc, _ := perGraph(float64(ph.work.alloc)/1024, ph.processed())
	r.set("alloc_kb_per_graph", alloc, processed)
	r.set("heap_live_mb", ph.heapMB, "after the timed phase")
	r.set("accuracy", ratio(float64(ph.correct), float64(ph.classified)), fmt.Sprintf("n=%d", ph.classified))
	r.set("success_rate", 1-ratio(float64(ph.failed), float64(ph.attempted)), fmt.Sprintf("n=%d", ph.attempted))
	return r, nil
}

// addProcessLayers fills the per-layer metrics read from the Go runtime
// over the measured sections of the untraced phase, which leave out the
// collections paper-cv forces between them, and the host steal over the
// whole phase.
func addProcessLayers(r *report, ph *phase) {
	r.set("go.gc_per_kgraph", 1000*ratio(float64(ph.work.gcs), float64(ph.processed())), fmt.Sprintf("%d cycles", ph.work.gcs))
	r.set("go.gc_cpu_fraction", ratio(ph.work.gcCPU, ph.work.allCPU), "")
	r.set("host.steal_pct", ph.whole.stealPct(), "")
}

func (r *report) print(tag string) {
	for _, def := range r.defs {
		note := r.samples[def.name]
		if def.moves != "" {
			note += " [moves " + def.moves + "]"
		}
		fmt.Printf("%-8s %-28s %16.6g %-12s %s\n", tag, def.name, r.values[def.name], def.unit, note)
	}
}
