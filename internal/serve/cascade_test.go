package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"graphhd/internal/core"
)

// TestEngineCascadeMatchesOffline checks the served two-stage path end to
// end: classes served through the engine match the offline cascade
// primitive, and the stage-1/escalation counters account for every graph.
func TestEngineCascadeMatchesOffline(t *testing.T) {
	pred, ds := testModel(t, 2048, 1)
	if err := pred.SetCascade(core.Cascade{DPrefix: 256, Margin: 10}); err != nil {
		t.Fatal(err)
	}
	// Offline reference through the per-graph cascade primitive.
	s := pred.Encoder().NewScratch()
	want := make([]int, len(ds.Graphs))
	for i, g := range ds.Graphs {
		want[i], _ = pred.PredictCascadeWith(s, g)
	}

	e, err := NewEngine(pred, Options{Workers: 4, MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	for i, g := range ds.Graphs {
		got, err := e.Predict(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		if got != want[i] {
			t.Fatalf("served cascade class %d for graph %d, offline %d", got, i, want[i])
		}
	}
	batched, err := e.PredictBatch(context.Background(), ds.Graphs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range batched {
		if batched[i] != want[i] {
			t.Fatalf("served batch cascade class %d for graph %d, offline %d", batched[i], i, want[i])
		}
	}

	m := e.Metrics()
	if got := m.CascadeStage1 + m.CascadeEscalated; got != m.Processed {
		t.Fatalf("cascade counters %d+%d do not cover %d processed graphs",
			m.CascadeStage1, m.CascadeEscalated, m.Processed)
	}
	if m.CascadeStage1 == 0 {
		t.Fatal("no graph was decided at stage 1")
	}
}

// TestHTTPCascadeSurfaces checks the operator surfaces: /v1/model carries
// the cascade config and /metrics exposes the stage-1/escalation counters
// and the model dimension gauge.
func TestHTTPCascadeSurfaces(t *testing.T) {
	pred, ds := testModel(t, 2048, 1)
	casc := core.Cascade{DPrefix: 1000, Margin: 25}
	if err := pred.SetCascade(casc); err != nil {
		t.Fatal(err)
	}
	srv, e := startTestServer(t, pred, HandlerOptions{})
	if _, err := e.PredictBatch(context.Background(), ds.Graphs); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL + "/v1/model")
	if err != nil {
		t.Fatal(err)
	}
	var info ModelInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if info.CascadePrefix != casc.DPrefix || info.CascadeMargin != casc.Margin {
		t.Fatalf("model card cascade %d/%d, want %d/%d",
			info.CascadePrefix, info.CascadeMargin, casc.DPrefix, casc.Margin)
	}

	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	m := e.Metrics()
	for _, line := range []string{
		fmt.Sprintf(`graphhd_cascade_stage1_total{model="default"} %d`, m.CascadeStage1),
		fmt.Sprintf(`graphhd_cascade_escalated_total{model="default"} %d`, m.CascadeEscalated),
		`graphhd_model_dimension{model="default"} 2048`,
	} {
		if !strings.Contains(body, line) {
			t.Fatalf("/metrics missing %q in:\n%s", line, body)
		}
	}
}

// TestRegistryPrepareModel checks the artifact-load hook: operator
// cascade flags apply to every model the registry reads from disk — both
// the initial LoadFile and the Reload (SIGHUP / admin) path — and a hook
// error aborts the reload, leaving the current model serving.
func TestRegistryPrepareModel(t *testing.T) {
	pred, _ := testModel(t, 2048, 1)
	casc := core.Cascade{DPrefix: 512, Margin: 9}
	reg := NewRegistry(RegistryOptions{
		Engine: Options{Workers: 1},
		PrepareModel: func(name string, p *core.Predictor) error {
			if name != "default" {
				return fmt.Errorf("hook saw model %q", name)
			}
			return p.SetCascade(casc)
		},
	})
	defer reg.Close()

	path := filepath.Join(t.TempDir(), "model.ghdp")
	if err := pred.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if err := reg.LoadFile("default", path); err != nil {
		t.Fatal(err)
	}
	serving, err := serveRegistryPredictor(reg, "default")
	if err != nil {
		t.Fatal(err)
	}
	got, on := serving.Cascade()
	if !on || got != casc {
		t.Fatalf("loaded model cascade = %+v (active %v), want %+v", got, on, casc)
	}

	// Reload re-reads the artifact and re-applies the hook.
	if err := pred.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if err := reg.Reload("default"); err != nil {
		t.Fatal(err)
	}
	serving, err = serveRegistryPredictor(reg, "default")
	if err != nil {
		t.Fatal(err)
	}
	if got, on := serving.Cascade(); !on || got != casc {
		t.Fatalf("reloaded model cascade = %+v (active %v), want %+v", got, on, casc)
	}

	// A failing hook (here: prefix too wide for a narrower model) aborts
	// the reload without installing the new model.
	small, _ := testModel(t, 256, 5)
	if err := small.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	before, err := serveRegistryPredictor(reg, "default")
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Reload("default"); err == nil {
		t.Fatal("reload with failing PrepareModel succeeded")
	}
	after, err := serveRegistryPredictor(reg, "default")
	if err != nil {
		t.Fatal(err)
	}
	if after != before {
		t.Fatal("failed reload replaced the serving model")
	}
}

// serveRegistryPredictor returns the predictor currently serving the
// named model's engine.
func serveRegistryPredictor(reg *Registry, name string) (*core.Predictor, error) {
	m, ok := reg.model(name)
	if !ok {
		return nil, fmt.Errorf("model %q not resident", name)
	}
	return m.eng.Predictor(), nil
}

// TestEngineCascadeToggleTraces toggles the serving model's cascade while
// single and batch predicts run, and checks that every trace record
// reports the cascade of the call that served it: Cascade is set exactly
// when Stage1 + Escalated == BatchSize. The escalate histogram and the
// cascade counters must agree with the records. Run under -race in CI.
func TestEngineCascadeToggleTraces(t *testing.T) {
	pred, ds := testModel(t, 2048, 1)
	casc := core.Cascade{DPrefix: 256, Margin: 10}
	if err := pred.SetCascade(casc); err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(pred, Options{Workers: 2, MaxBatch: 4, TraceDepth: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	stop := make(chan struct{})
	var toggler sync.WaitGroup
	toggler.Add(1)
	go func() {
		defer toggler.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				pred.ClearCascade()
			} else if err := pred.SetCascade(casc); err != nil {
				t.Error(err)
				return
			}
			runtime.Gosched()
		}
	}()
	// Each client yields to the toggler after every call and runs at
	// least minRounds calls, going on until both cascade and plain calls
	// have been served, so the run cannot stay in one state even on one
	// CPU. maxRounds keeps every record in the ring.
	const minRounds, maxRounds = 200, 1000
	mixed := func() bool {
		c := e.m.stageEscalate.count.Load()
		return c > 0 && c < e.m.stagePlan.count.Load()
	}
	var records atomic.Int64
	ctx := context.Background()
	var clients sync.WaitGroup
	for c := 0; c < 4; c++ {
		clients.Add(1)
		go func(c int) {
			defer clients.Done()
			for r := 0; r < maxRounds && (r < minRounds || !mixed()); r++ {
				var err error
				if c%2 == 0 {
					_, err = e.Predict(ctx, ds.Graphs[(c*maxRounds+r)%len(ds.Graphs)])
					records.Add(1)
				} else {
					_, err = e.PredictBatch(ctx, ds.Graphs[r%8:r%8+6]) // two segments
					records.Add(2)
				}
				if err != nil {
					t.Error(err)
					return
				}
				runtime.Gosched()
			}
		}(c)
	}
	clients.Wait()
	close(stop)
	toggler.Wait()

	traces := e.Traces()
	if int64(len(traces)) != records.Load() {
		t.Fatalf("%d trace records, want %d", len(traces), records.Load())
	}
	var on, off int
	var stage1, escalated uint64
	for _, tr := range traces {
		if tr.Cascade != (tr.Stage1+tr.Escalated == tr.BatchSize) {
			t.Fatalf("record %d: cascade %v with stage1 %d + escalated %d of %d graphs",
				tr.Seq, tr.Cascade, tr.Stage1, tr.Escalated, tr.BatchSize)
		}
		if tr.Cascade {
			on++
			stage1 += uint64(tr.Stage1)
			escalated += uint64(tr.Escalated)
		} else {
			off++
		}
	}
	if on == 0 || off == 0 {
		t.Fatalf("toggling left %d cascade and %d plain records, want both kinds", on, off)
	}
	m := e.Metrics()
	if m.StageEscalate.Count != uint64(on) {
		t.Fatalf("escalate histogram observed %d calls, %d records ran the cascade", m.StageEscalate.Count, on)
	}
	if m.CascadeStage1 != stage1 || m.CascadeEscalated != escalated {
		t.Fatalf("cascade counters %d+%d, records %d+%d", m.CascadeStage1, m.CascadeEscalated, stage1, escalated)
	}
}
