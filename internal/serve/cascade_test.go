package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strings"
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
