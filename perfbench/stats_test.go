package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // reversed: percentile must sort
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n      int
		q      float64
		want   float64
		beyond int
		ok     bool
	}{
		{20, 0.5, 10, 10, true},
		{19, 0.5, 10, 9, false},
		{100, 0.9, 90, 10, true},
		{99, 0.9, 90, 9, false},
		{1000, 0.99, 990, 10, true},
		{0, 0.5, 0, 0, false},
	} {
		v, beyond, ok := percentile(seq(tc.n), tc.q)
		if ok != tc.ok || beyond != tc.beyond || (ok && v != tc.want) {
			t.Errorf("percentile(1..%d, %g) = %g, %d beyond, ok %v; want %g, %d, %v",
				tc.n, tc.q, v, beyond, ok, tc.want, tc.beyond, tc.ok)
		}
	}
}

func TestEndToEndPrintsSampleCounts(t *testing.T) {
	r, err := endToEndReport(phaseOf(1000), []float64{1}, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	for _, def := range endToEnd {
		if r.samples[def.name] == "" {
			t.Errorf("%s printed without its sample count", def.name)
		}
	}
	if got := r.samples["latency_p90_us"]; got != "n=1000" {
		t.Errorf("latency_p90_us printed %q, want n=1000", got)
	}
	if _, err := endToEndReport(phaseOf(99), []float64{1}, []float64{1}); err == nil {
		t.Error("a p90 with 9 samples beyond it was reported")
	}
}

func TestNetTimeSubtractsTheJoinedHandler(t *testing.T) {
	tr := newTracer()
	tr.add("client.request", 0, 100, -1, 1)
	tr.add("client.request", 200, 250, -1, 2) // its handler span is missing
	tr.add("serve.handler", 30, 90, -1, 1)
	tr.add("serve.handler", 300, 310, -1, 3) // no client span has its id
	tr.add("client.request", 400, 470, -1, 4)
	tr.add("serve.handler", 420, 450, -1, 4)
	total, n := netTime(tr.snapshot())
	if total != (100-60)+(70-30) || n != 2 {
		t.Errorf("netTime = %d over %d pairs, want 80 over 2", total, n)
	}
}

// TestAnyFailureMarksTheRunIncorrect sends a 2xx answer, a wrong answer
// and a 500 reply: each failure alone makes the result line incorrect.
func TestAnyFailureMarksTheRunIncorrect(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/ok":
			fmt.Fprint(w, `{"class": 1}`)
		case "/wrong":
			fmt.Fprint(w, `{"class": 7}`)
		default:
			http.Error(w, "boom", http.StatusInternalServerError)
		}
	}))
	defer srv.Close()
	s := &stack{url: srv.URL, client: srv.Client()}
	tf := &traffic{labels: []int{1}, k: 2}
	rep := newReport(endToEnd)
	for _, tc := range []struct {
		path          string
		failed, wrong int
	}{
		{"/ok", 0, 0},
		{"/wrong", 1, 1},
		{"/500", 1, 0},
	} {
		var cl phase
		var buf bytes.Buffer
		s.send(tf, &op{path: tc.path, body: []byte(`{}`), idx: []int{0}}, 1, &buf, &cl, nil)
		if cl.attempted != 1 || cl.failed != tc.failed || cl.wrong != tc.wrong {
			t.Errorf("%s: attempted %d, failed %d, wrong %d; want 1, %d, %d",
				tc.path, cl.attempted, cl.failed, cl.wrong, tc.failed, tc.wrong)
		}
		if got := newResult(&cl, rep).Correct; got != (tc.failed == 0) {
			t.Errorf("%s: correct = %v with %d failed", tc.path, got, cl.failed)
		}
	}
}

// phaseOf is a phase that classified graphs graphs in 2 s, with one
// latency sample per graph, and trained as many in 4 s, costing 3 ms of
// CPU and 6 MB of heap.
func phaseOf(graphs int) *phase {
	return &phase{
		wall:       2 * time.Second,
		trainWall:  4 * time.Second,
		classified: graphs,
		trained:    graphs,
		attempted:  graphs,
		lat:        seq(graphs),
		work:       cost{cpu: 3 * time.Millisecond, alloc: 6 << 20},
	}
}

func TestPerGraphNormalisation(t *testing.T) {
	if v, err := perGraph(1000, 4); err != nil || v != 250 {
		t.Errorf("perGraph(1000, 4) = %g, %v", v, err)
	}
	if _, err := perGraph(1, 0); err == nil {
		t.Error("perGraph over no graphs did not fail")
	}
	// 1000 graphs classified and 1000 trained: costs are per 2000 graphs,
	// rates per the wall time of their own work.
	r, err := endToEndReport(phaseOf(1000), []float64{3, 1, 2}, []float64{7})
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"cpu_us_per_graph":   1.5,
		"alloc_kb_per_graph": 3.072,
		"graphs_per_s":       500,
		"train_graphs_per_s": 250,
		"setup_s":            2,
		"latency_p50_us":     500,
		"success_rate":       1,
	} {
		if got := r.values[name]; got != want {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
	// Without training in the phase, the set-ups' training rate is used.
	ph := phaseOf(1000)
	ph.trainWall, ph.trained = 0, 0
	r, err = endToEndReport(ph, []float64{1}, []float64{7, 9, 8})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.values["train_graphs_per_s"]; got != 8 {
		t.Errorf("set-up training rate = %g, want the median 8", got)
	}
}

func TestExpositionSeries(t *testing.T) {
	m := parseExposition(`# HELP graphhd_stage_seconds x
# TYPE graphhd_stage_seconds histogram
graphhd_stage_seconds_sum{model="default",replica="0",stage="plan"} 0.5
graphhd_stage_seconds_sum{model="default",replica="1",stage="plan"} 0.25
graphhd_stage_seconds_sum{model="default",replica="0",stage="encode"} 2
graphhd_stage_seconds_sum{model="other",replica="0",stage="plan"} 8
graphhd_graphs_processed_total{model="default",replica="0"} 3
graphhd_graphs_processed_totalx{model="default"} 100
graphhd_models_resident 1
`)
	if got := series(m, "graphhd_stage_seconds_sum", `model="default"`, `stage="plan"`); got != 0.75 {
		t.Errorf("plan sum = %g, want 0.75", got)
	}
	if got := series(m, "graphhd_graphs_processed_total", `model="default"`); got != 3 {
		t.Errorf("processed = %g, want 3 (a family sharing the prefix must not count)", got)
	}
	if got := series(m, "graphhd_models_resident"); got != 1 {
		t.Errorf("unlabeled series = %g, want 1", got)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics this
// program reports the same, and checks that every workload it names
// exists here.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit, Better string }
	var b struct {
		Command   []string
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []entry, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i, e := range got {
			if e.Name != want[i].name || e.Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, program %s %s", kind, i, e.Name, e.Unit, want[i].name, want[i].unit)
			}
			if e.Better != "higher" && e.Better != "lower" {
				t.Errorf("%s: better = %q", e.Name, e.Better)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) < 2 {
		t.Errorf("BENCHMARK.json names %d workloads, want at least 2", len(b.Workloads))
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q is not in the program", w.Name)
		}
		if strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why spans lines", w.Name)
		}
	}
}
