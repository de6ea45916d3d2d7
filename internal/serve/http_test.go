package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"graphhd/internal/core"
	"graphhd/internal/graph"
)

// testEngineOptions is the per-model engine shape every HTTP test runs.
func testEngineOptions() Options {
	return Options{Workers: 2, MaxBatch: 8}
}

// startTestStack stands up registry → router → HTTP over pred installed
// as the default model.
func startTestStack(t *testing.T, pred *core.Predictor, ropts RouterOptions, opts HandlerOptions) (*httptest.Server, *Router) {
	t.Helper()
	reg := NewRegistry(RegistryOptions{Engine: testEngineOptions()})
	if pred != nil {
		if err := reg.Load("default", pred); err != nil {
			t.Fatal(err)
		}
	}
	rt := NewRouter(reg, ropts)
	srv := httptest.NewServer(NewHandler(rt, opts))
	t.Cleanup(func() { srv.Close(); reg.Close() })
	return srv, rt
}

// startTestServer is the single-model shorthand, returning the default
// model's engine for white-box assertions.
func startTestServer(t *testing.T, pred *core.Predictor, opts HandlerOptions) (*httptest.Server, *Engine) {
	t.Helper()
	srv, rt := startTestStack(t, pred, RouterOptions{}, opts)
	return srv, modelEngine(t, rt, "default")
}

// modelEngine digs a model's engine out of the registry.
func modelEngine(t *testing.T, rt *Router, model string) *Engine {
	t.Helper()
	m, ok := rt.reg.model(model)
	if !ok {
		t.Fatalf("model %q not resident", model)
	}
	return m.eng
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// TestHTTPPredictMatchesOffline is the end-to-end acceptance test: train
// on a synthetic dataset, save the packed predictor, serve the saved
// artifact, and require single and batch predictions over the wire to be
// bit-identical to Predictor.PredictAll on the same graphs.
func TestHTTPPredictMatchesOffline(t *testing.T) {
	trained, ds := testModel(t, 2048, 1)
	path := filepath.Join(t.TempDir(), "model.ghdp")
	if err := trained.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	pred, err := core.LoadPredictorFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := pred.PredictAll(ds.Graphs)
	srv, _ := startTestServer(t, pred, HandlerOptions{ClassNames: ds.ClassNames})

	for i, g := range ds.Graphs[:12] {
		resp, body := postJSON(t, srv.URL+"/v1/predict", PredictRequest{Graph: graph.ToJSON(g)})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("graph %d: status %d: %s", i, resp.StatusCode, body)
		}
		var pr PredictResponse
		if err := json.Unmarshal(body, &pr); err != nil {
			t.Fatal(err)
		}
		if pr.Class != want[i] {
			t.Fatalf("graph %d: HTTP class %d, offline class %d", i, pr.Class, want[i])
		}
		if pr.ClassName != ds.ClassNames[pr.Class] {
			t.Fatalf("graph %d: class name %q, want %q", i, pr.ClassName, ds.ClassNames[pr.Class])
		}
	}

	wire := make([]*graph.GraphJSON, len(ds.Graphs))
	for i, g := range ds.Graphs {
		wire[i] = graph.ToJSON(g)
	}
	resp, body := postJSON(t, srv.URL+"/v1/predict/batch", PredictBatchRequest{Graphs: wire})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d: %s", resp.StatusCode, body)
	}
	var br PredictBatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Classes) != len(want) {
		t.Fatalf("batch returned %d classes, want %d", len(br.Classes), len(want))
	}
	for i := range want {
		if br.Classes[i] != want[i] {
			t.Fatalf("batch graph %d: HTTP class %d, offline class %d", i, br.Classes[i], want[i])
		}
	}
}

// TestHTTPModelRoutes serves two named models and requires the named
// routes to answer under the right model, unknown names to 404, the
// registry table to list both, and /admin/models to evict and re-load.
func TestHTTPModelRoutes(t *testing.T) {
	predA, ds := testModel(t, 2048, 1)
	predB, _ := testModel(t, 1024, 99)
	wantA := predA.PredictAll(ds.Graphs)
	wantB := predB.PredictAll(ds.Graphs)

	pathB := filepath.Join(t.TempDir(), "beta.ghdp")
	if err := predB.SaveFile(pathB); err != nil {
		t.Fatal(err)
	}

	srv, rt := startTestStack(t, predA, RouterOptions{}, HandlerOptions{})
	if err := rt.Registry().LoadFile("beta", pathB); err != nil {
		t.Fatal(err)
	}

	// Disagreeing graphs prove routing actually switches models; with
	// these tiny models at least one of 48 graphs disagrees in practice.
	for i := range ds.Graphs {
		resp, body := postJSON(t, srv.URL+"/v1/models/beta/predict", PredictRequest{Graph: graph.ToJSON(ds.Graphs[i])})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("beta graph %d: status %d: %s", i, resp.StatusCode, body)
		}
		var pr PredictResponse
		if err := json.Unmarshal(body, &pr); err != nil {
			t.Fatal(err)
		}
		if pr.Class != wantB[i] {
			t.Fatalf("beta graph %d: class %d, want %d", i, pr.Class, wantB[i])
		}
	}
	resp, body := postJSON(t, srv.URL+"/v1/models/default/predict", PredictRequest{Graph: graph.ToJSON(ds.Graphs[0])})
	var pr PredictResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || pr.Class != wantA[0] {
		t.Fatalf("default by name: status %d class %d, want 200 class %d", resp.StatusCode, pr.Class, wantA[0])
	}

	// Unknown model → 404, on both single and batch routes.
	resp, _ = postJSON(t, srv.URL+"/v1/models/nope/predict", PredictRequest{Graph: graph.ToJSON(ds.Graphs[0])})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown model: status %d, want 404", resp.StatusCode)
	}
	resp, _ = postJSON(t, srv.URL+"/v1/models/nope/predict/batch", PredictBatchRequest{Graphs: []*graph.GraphJSON{graph.ToJSON(ds.Graphs[0])}})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown model batch: status %d, want 404", resp.StatusCode)
	}

	// Registry table lists both models.
	hresp, err := http.Get(srv.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	var mr ModelsResponse
	err = json.NewDecoder(hresp.Body).Decode(&mr)
	hresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if mr.DefaultModel != "default" || len(mr.Registry.Models) != 2 {
		t.Fatalf("models response: default %q, %d models", mr.DefaultModel, len(mr.Registry.Models))
	}
	if mr.Registry.Models[0].Name != "beta" || mr.Registry.Models[1].Name != "default" {
		t.Fatalf("models not sorted by name: %q, %q", mr.Registry.Models[0].Name, mr.Registry.Models[1].Name)
	}
	if mr.Registry.Models[0].Dimension != 1024 {
		t.Fatalf("beta dimension %d, want 1024", mr.Registry.Models[0].Dimension)
	}

	// Evict beta over the admin endpoint; its routes go 404.
	resp, body = postJSON(t, srv.URL+"/admin/models", AdminModelRequest{Action: "evict", Name: "beta"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("evict: status %d: %s", resp.StatusCode, body)
	}
	resp, _ = postJSON(t, srv.URL+"/v1/models/beta/predict", PredictRequest{Graph: graph.ToJSON(ds.Graphs[0])})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted model: status %d, want 404", resp.StatusCode)
	}
	resp, _ = postJSON(t, srv.URL+"/admin/models", AdminModelRequest{Action: "evict", Name: "beta"})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("double evict: status %d, want 404", resp.StatusCode)
	}

	// Load it back; routes work again.
	resp, body = postJSON(t, srv.URL+"/admin/models", AdminModelRequest{Action: "load", Name: "beta", Path: pathB})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("load: status %d: %s", resp.StatusCode, body)
	}
	resp, _ = postJSON(t, srv.URL+"/v1/models/beta/predict", PredictRequest{Graph: graph.ToJSON(ds.Graphs[0])})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-loaded model: status %d, want 200", resp.StatusCode)
	}

	// Per-model reload through the admin endpoint.
	resp, body = postJSON(t, srv.URL+"/admin/models", AdminModelRequest{Action: "reload", Name: "beta"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("admin reload: status %d: %s", resp.StatusCode, body)
	}

	// Bad admin requests.
	resp, _ = postJSON(t, srv.URL+"/admin/models", AdminModelRequest{Action: "load", Name: "x"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("load without path: status %d, want 400", resp.StatusCode)
	}
	resp, _ = postJSON(t, srv.URL+"/admin/models", AdminModelRequest{Action: "frobnicate", Name: "x"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown action: status %d, want 400", resp.StatusCode)
	}
	resp, _ = postJSON(t, srv.URL+"/admin/models", AdminModelRequest{Action: "evict"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("evict without name: status %d, want 400", resp.StatusCode)
	}
	resp, _ = postJSON(t, srv.URL+"/admin/models", AdminModelRequest{Action: "load", Name: "x", Path: filepath.Join(t.TempDir(), "missing.ghdp")})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("load missing artifact: status %d, want 500", resp.StatusCode)
	}
	rawResp, err := http.Post(srv.URL+"/admin/models", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	rawResp.Body.Close()
	if rawResp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed admin JSON: status %d, want 400", rawResp.StatusCode)
	}
}

// TestHTTPAdminLoadTooLarge maps ErrModelTooLarge to 507.
func TestHTTPAdminLoadTooLarge(t *testing.T) {
	small, _ := testModel(t, 1024, 1) // 256 bytes, fits
	big, _ := testModel(t, 4096, 2)   // 1024 bytes, over budget
	path := filepath.Join(t.TempDir(), "big.ghdp")
	if err := big.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry(RegistryOptions{Engine: testEngineOptions(), MaxResidentBytes: 600})
	if err := reg.Load("default", small); err != nil {
		t.Fatal(err)
	}
	rt := NewRouter(reg, RouterOptions{})
	srv := httptest.NewServer(NewHandler(rt, HandlerOptions{}))
	t.Cleanup(func() { srv.Close(); reg.Close() })

	resp, body := postJSON(t, srv.URL+"/admin/models", AdminModelRequest{Action: "load", Name: "big", Path: path})
	if resp.StatusCode != http.StatusInsufficientStorage {
		t.Fatalf("over-budget load: status %d, want 507 (%s)", resp.StatusCode, body)
	}
}

// TestHTTPQuota429 bounds a tenant at 4 in-flight graphs and requires a
// 5-graph batch to shed with 429 — without touching any engine queue —
// while another tenant's requests pass.
func TestHTTPQuota429(t *testing.T) {
	pred, ds := testModel(t, 1024, 1)
	srv, rt := startTestStack(t, pred, RouterOptions{TenantQuota: 4}, HandlerOptions{})
	e := modelEngine(t, rt, "default")

	wire := make([]*graph.GraphJSON, 5)
	for i := range wire {
		wire[i] = graph.ToJSON(ds.Graphs[i])
	}
	data, _ := json.Marshal(PredictBatchRequest{Graphs: wire})
	req, _ := http.NewRequest("POST", srv.URL+"/v1/predict/batch", bytes.NewReader(data))
	req.Header.Set("X-Tenant", "noisy")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota batch: status %d, want 429 (%s)", resp.StatusCode, body)
	}
	if got := e.Metrics().AcceptedGraphs; got != 0 {
		t.Fatalf("quota rejection reached the engine queue: %d graphs accepted", got)
	}

	// A different tenant (default, no header) is unaffected.
	resp2, body2 := postJSON(t, srv.URL+"/v1/predict", PredictRequest{Graph: graph.ToJSON(ds.Graphs[0])})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("other tenant: status %d: %s", resp2.StatusCode, body2)
	}

	ten := rt.Tenants()
	var noisy *TenantStatus
	for i := range ten {
		if ten[i].Tenant == "noisy" {
			noisy = &ten[i]
		}
	}
	if noisy == nil || noisy.Rejected != 1 {
		t.Fatalf("noisy tenant status %+v, want 1 rejection", noisy)
	}
}

func TestHTTPModelAndHealth(t *testing.T) {
	pred, _ := testModel(t, 2048, 1)
	srv, _ := startTestServer(t, pred, HandlerOptions{})

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hbody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	if !strings.Contains(string(hbody), "models: 1") {
		t.Fatalf("healthz missing registry summary:\n%s", hbody)
	}

	resp, err = http.Get(srv.URL + "/v1/model")
	if err != nil {
		t.Fatal(err)
	}
	var info ModelInfo
	err = json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if info.Dimension != 2048 || info.Classes != pred.NumClasses() || info.MemoryBytes != pred.MemoryBytes() {
		t.Fatalf("model card %+v disagrees with predictor (d=2048, k=%d, %d bytes)",
			info, pred.NumClasses(), pred.MemoryBytes())
	}
	if info.Centrality != "pagerank" {
		t.Fatalf("model card centrality %q", info.Centrality)
	}
	if info.Model != "default" || info.Version != 1 {
		t.Fatalf("model card registry fields: %+v", info)
	}
	if info.ModelsResident != 1 || info.RegistryBytes != int64(pred.MemoryBytes()) {
		t.Fatalf("registry summary: %d models, %d bytes", info.ModelsResident, info.RegistryBytes)
	}
}

func TestHTTPMetricsEndpoint(t *testing.T) {
	pred, ds := testModel(t, 1024, 1)
	srv, _ := startTestServer(t, pred, HandlerOptions{})
	postJSON(t, srv.URL+"/v1/predict", PredictRequest{Graph: graph.ToJSON(ds.Graphs[0])})

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	for _, want := range []string{
		`graphhd_requests_total{model="default"} 1`,
		`graphhd_request_latency_seconds_count{model="default"} 1`,
		`graphhd_model_classes{model="default"}`,
		`graphhd_models_resident 1`,
		`graphhd_quota_rejected_total{tenant="default"} 0`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
}

func TestHTTPBadRequests(t *testing.T) {
	pred, _ := testModel(t, 1024, 1)
	srv, _ := startTestServer(t, pred, HandlerOptions{Limits: graph.CodecLimits{MaxVertices: 50}})

	// text is the exact error a 400 carries; rows expecting 200 are bodies
	// the wire has always accepted, kept here so a faster decoder cannot
	// quietly narrow what is accepted.
	cases := []struct {
		name, path, body string
		status           int
		text             string
	}{
		{"not json", "/v1/predict", "{", http.StatusBadRequest,
			"serve: decode request: unexpected EOF"},
		{"missing graph", "/v1/predict", `{}`, http.StatusBadRequest,
			"serve: missing graph"},
		{"edge out of range", "/v1/predict", `{"graph":{"num_vertices":2,"edges":[[0,5]]}}`, http.StatusBadRequest,
			"graph: edges[0]: graph: edge (0,5) out of range [0,2)"},
		{"over vertex limit", "/v1/predict", `{"graph":{"num_vertices":100,"edges":[]}}`, http.StatusBadRequest,
			"graph: num_vertices 100 exceeds limit 50"},
		{"labels to unlabeled model", "/v1/predict", `{"graph":{"num_vertices":2,"edges":[[0,1]],"vertex_labels":[1,2]}}`, http.StatusBadRequest,
			"serve: vertex_labels supplied but the loaded model does not use vertex labels"},
		{"bad batch element", "/v1/predict/batch", `{"graphs":[{"num_vertices":2,"edges":[[0,9]]}]}`, http.StatusBadRequest,
			"graphs[0]: graph: edges[0]: graph: edge (0,9) out of range [0,2)"},
		{"fractional endpoint", "/v1/predict", `{"graph":{"num_vertices":2,"edges":[[0,1.0]]}}`, http.StatusBadRequest,
			"serve: decode request: json: cannot unmarshal number 1.0 into Go struct field GraphJSON.graph.edges of type int"},
		{"exponent endpoint", "/v1/predict", `{"graph":{"num_vertices":2,"edges":[[0,1e0]]}}`, http.StatusBadRequest,
			"serve: decode request: json: cannot unmarshal number 1e0 into Go struct field GraphJSON.graph.edges of type int"},
		{"string vertex count", "/v1/predict", `{"graph":{"num_vertices":"2","edges":[[0,1]]}}`, http.StatusBadRequest,
			"serve: decode request: json: cannot unmarshal string into Go struct field GraphJSON.graph.num_vertices of type int"},
		{"string endpoint", "/v1/predict", `{"graph":{"num_vertices":2,"edges":[[0,"1"]]}}`, http.StatusBadRequest,
			"serve: decode request: json: cannot unmarshal string into Go struct field GraphJSON.graph.edges of type int"},
		{"20-digit endpoint", "/v1/predict", `{"graph":{"num_vertices":2,"edges":[[0,12345678901234567890]]}}`, http.StatusBadRequest,
			"serve: decode request: json: cannot unmarshal number 12345678901234567890 into Go struct field GraphJSON.graph.edges of type int"},
		{"object edges", "/v1/predict", `{"graph":{"num_vertices":2,"edges":{"0":1}}}`, http.StatusBadRequest,
			"serve: decode request: json: cannot unmarshal object into Go struct field GraphJSON.graph.edges of type [][2]int"},
		{"fractional endpoint in batch", "/v1/predict/batch", `{"graphs":[{"num_vertices":2,"edges":[[0,1.0]]}]}`, http.StatusBadRequest,
			"serve: decode request: json: cannot unmarshal number 1.0 into Go struct field GraphJSON.graphs.edges of type int"},
		{"three-element pair", "/v1/predict", `{"graph":{"num_vertices":3,"edges":[[0,1,2]]}}`, http.StatusOK, ""},
		{"one-element pair", "/v1/predict", `{"graph":{"num_vertices":2,"edges":[[1]]}}`, http.StatusOK, ""},
		{"null edges", "/v1/predict", `{"graph":{"num_vertices":2,"edges":null}}`, http.StatusOK, ""},
		{"case-folded key", "/v1/predict", `{"graph":{"num_vertices":2,"EDGES":[[0,1]]}}`, http.StatusOK, ""},
	}
	for _, tc := range cases {
		resp, err := http.Post(srv.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.status, body)
		}
		if tc.status == http.StatusOK {
			var pr PredictResponse
			if err := json.Unmarshal(body, &pr); err != nil {
				t.Errorf("%s: body %q is not a predict response", tc.name, body)
			}
			continue
		}
		var er errorResponse
		if err := json.Unmarshal(body, &er); err != nil || er.Error != tc.text {
			t.Errorf("%s: error body %q, want error %q", tc.name, body, tc.text)
		}
	}

	// Wrong method / unknown route.
	resp, err := http.Get(srv.URL + "/v1/predict")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/predict: status %d, want 405", resp.StatusCode)
	}
}

// TestHTTPOversizedEdgeListAllocation posts canonical edge lists far over
// MaxEdges. They must be refused with 400 naming the limit, having
// allocated at most 8× the body on the way: the decoded edge slice is
// sized exactly, with no reflection growth or per-element garbage.
func TestHTTPOversizedEdgeListAllocation(t *testing.T) {
	pred, _ := testModel(t, 1024, 1)
	reg := NewRegistry(RegistryOptions{Engine: testEngineOptions()})
	if err := reg.Load("default", pred); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(reg.Close)
	h := NewHandler(NewRouter(reg, RouterOptions{}), HandlerOptions{Limits: graph.CodecLimits{MaxEdges: 1000}})
	for _, mib := range []int{1, 4} {
		var body bytes.Buffer
		body.WriteString(`{"graph":{"num_vertices":2,"edges":[[0,1]`)
		for body.Len() < mib<<20 {
			body.WriteString(`,[1,0]`)
		}
		body.WriteString(`]}}`)
		size := body.Len()
		req := httptest.NewRequest(http.MethodPost, "/v1/predict", &body)
		rec := httptest.NewRecorder()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		h.ServeHTTP(rec, req)
		runtime.ReadMemStats(&after)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "exceed limit 1000") {
			t.Fatalf("%d MiB list: status %d, body %s; want 400 naming the edge limit", mib, rec.Code, rec.Body)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 8*uint64(size) {
			t.Errorf("%d MiB list: handler allocated %d bytes, %.1f× the %d-byte body (limit 8×)",
				mib, alloc, float64(alloc)/float64(size), size)
		}
	}
}

// TestHTTPHotReload saves two different models to the same path and flips
// between them through POST /admin/reload while request goroutines stream
// predictions; the acceptance bar is zero failed in-flight requests, with
// every response valid under one of the two models.
func TestHTTPHotReload(t *testing.T) {
	predA, ds := testModel(t, 2048, 1)
	predB, _ := testModel(t, 1024, 99)
	wantA := predA.PredictAll(ds.Graphs)
	wantB := predB.PredictAll(ds.Graphs)

	path := filepath.Join(t.TempDir(), "model.ghdp")
	if err := predA.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry(RegistryOptions{Engine: testEngineOptions()})
	if err := reg.LoadFile("default", path); err != nil {
		t.Fatal(err)
	}
	rt := NewRouter(reg, RouterOptions{})
	srv := httptest.NewServer(NewHandler(rt, HandlerOptions{}))
	t.Cleanup(func() { srv.Close(); reg.Close() })
	e := modelEngine(t, rt, "default")

	var wg sync.WaitGroup
	var failures atomic.Int64
	stop := make(chan struct{})
	const clients = 4
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer wg.Done()
			for r := 0; ; r++ {
				select {
				case <-stop:
					return
				default:
				}
				i := (c + r) % len(ds.Graphs)
				resp, body := postJSON(t, srv.URL+"/v1/predict", PredictRequest{Graph: graph.ToJSON(ds.Graphs[i])})
				if resp.StatusCode != http.StatusOK {
					t.Errorf("in-flight request failed during reload: %d %s", resp.StatusCode, body)
					failures.Add(1)
					return
				}
				var pr PredictResponse
				if err := json.Unmarshal(body, &pr); err != nil {
					t.Error(err)
					failures.Add(1)
					return
				}
				if pr.Class != wantA[i] && pr.Class != wantB[i] {
					t.Errorf("graph %d: class %d matches neither model", i, pr.Class)
					failures.Add(1)
					return
				}
			}
		}(c)
	}

	// Alternate the artifact on disk and reload it over HTTP.
	for swap := 0; swap < 6; swap++ {
		p := predA
		if swap%2 == 0 {
			p = predB
		}
		if err := p.SaveFile(path); err != nil {
			t.Fatal(err)
		}
		resp, body := postJSON(t, srv.URL+"/admin/reload", struct{}{})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("reload %d: status %d: %s", swap, resp.StatusCode, body)
		}
		if !strings.Contains(string(body), `"reloaded":true`) {
			t.Fatalf("reload %d: body %s", swap, body)
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d in-flight requests failed across hot reloads", failures.Load())
	}
	if got := e.Metrics().Reloads; got != 6 {
		t.Fatalf("reloads %d, want 6", got)
	}

	// The last reload (swap 5) installed predA; the model card must
	// reflect the final artifact, and the registry version the 6 swaps.
	resp, err := http.Get(srv.URL + "/v1/model")
	if err != nil {
		t.Fatal(err)
	}
	var info ModelInfo
	err = json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if info.Dimension != predA.Encoder().Dimension() {
		t.Fatalf("final model dimension %d, want %d", info.Dimension, predA.Encoder().Dimension())
	}
	if info.Version != 7 || info.Reloads != 6 {
		t.Fatalf("version %d reloads %d, want 7 and 6", info.Version, info.Reloads)
	}
}

func TestHTTPReloadErrors(t *testing.T) {
	pred, ds := testModel(t, 1024, 1)
	// Model loaded in-memory: nothing has an artifact path to reload.
	srv, _ := startTestServer(t, pred, HandlerOptions{})
	resp, body := postJSON(t, srv.URL+"/admin/reload", struct{}{})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("reload without model path: status %d: %s", resp.StatusCode, body)
	}

	// File-backed model whose artifact disappears: reload must fail 500
	// and leave the current model serving.
	path := filepath.Join(t.TempDir(), "model.ghdp")
	if err := pred.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry(RegistryOptions{Engine: testEngineOptions()})
	if err := reg.LoadFile("default", path); err != nil {
		t.Fatal(err)
	}
	rt := NewRouter(reg, RouterOptions{})
	srv2 := httptest.NewServer(NewHandler(rt, HandlerOptions{}))
	t.Cleanup(func() { srv2.Close(); reg.Close() })
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	resp, body = postJSON(t, srv2.URL+"/admin/reload", struct{}{})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("reload of missing file: status %d: %s", resp.StatusCode, body)
	}
	resp, _ = postJSON(t, srv2.URL+"/v1/predict", PredictRequest{Graph: graph.ToJSON(ds.Graphs[0])})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("model stopped serving after failed reload: status %d", resp.StatusCode)
	}
}

// TestHTTPOverloadMaps429 fills the admission bound of an engine whose
// only encode slot is held and checks the HTTP mapping: 429 while
// overloaded, 503 once the engine is closed.
func TestHTTPOverloadMaps429(t *testing.T) {
	pred, ds := testModel(t, 1024, 1)
	e, err := NewEngine(pred, Options{Workers: 1, QueueSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	reg := registryWithEngine(t, "default", pred, e)
	rt := NewRouter(reg, RouterOptions{})
	srv := httptest.NewServer(NewHandler(rt, HandlerOptions{}))
	defer srv.Close()

	release := holdSlots(e)
	defer release()
	done := make(chan struct{})
	go func() { // takes the single queue place, waiting for the held slot
		e.Predict(context.Background(), ds.Graphs[0])
		close(done)
	}()
	waitDepth(t, e, 1)
	resp, body := postJSON(t, srv.URL+"/v1/predict", PredictRequest{Graph: graph.ToJSON(ds.Graphs[1])})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overloaded predict: status %d, want 429 (%s)", resp.StatusCode, body)
	}
	release()
	<-done
	e.Close()

	// A closed engine maps to 503 Service Unavailable.
	resp, body = postJSON(t, srv.URL+"/v1/predict", PredictRequest{Graph: graph.ToJSON(ds.Graphs[1])})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("closed engine: status %d, want 503 (%s)", resp.StatusCode, body)
	}
}

// registryWithEngine hand-installs a pre-built engine as one model — the
// white-box seam for admission tests, which hold the engine's slots.
func registryWithEngine(t *testing.T, name string, pred *core.Predictor, e *Engine) *Registry {
	t.Helper()
	reg := NewRegistry(RegistryOptions{})
	m := &regModel{name: name, bytes: int64(pred.MemoryBytes()), eng: e}
	reg.mu.Lock()
	reg.publish(func(tbl map[string]*regModel) { tbl[name] = m })
	reg.bytes.Add(m.bytes)
	reg.mu.Unlock()
	return reg
}

// TestHTTPCascadeSurfaces serves a GRAPHHD3 artifact, the record of the
// removed prefix-sliced two-stage classifier, through LoadFile and HTTP:
// it answers exactly as its GRAPHHD2 bytes do, at full width, before and
// after a reload, and no surface — /v1/model, /v1/models, /metrics —
// reports a cascade.
func TestHTTPCascadeSurfaces(t *testing.T) {
	pred, ds := testModel(t, 2048, 1)
	var rec bytes.Buffer
	if _, err := pred.WriteTo(&rec); err != nil {
		t.Fatal(err)
	}
	// A GRAPHHD3 record is the GRAPHHD2 record with its magic changed and
	// a (dprefix, margin) pair after the 44-byte header.
	const header = 44
	legacy := append([]byte("GRAPHHD3"), rec.Bytes()[8:header]...)
	legacy = append(legacy, 0, 4, 0, 0, 12, 0, 0, 0) // (1024, 12), little endian
	legacy = append(legacy, rec.Bytes()[header:]...)
	path := filepath.Join(t.TempDir(), "legacy.ghdp")
	if err := os.WriteFile(path, legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry(RegistryOptions{Engine: testEngineOptions()})
	if err := reg.LoadFile("default", path); err != nil {
		t.Fatal(err)
	}
	rt := NewRouter(reg, RouterOptions{})
	srv := httptest.NewServer(NewHandler(rt, HandlerOptions{}))
	t.Cleanup(func() { srv.Close(); reg.Close() })

	want := pred.PredictAll(ds.Graphs)
	predictAll := func(when string) {
		t.Helper()
		resp, body := postJSON(t, srv.URL+"/v1/predict/batch", PredictBatchRequest{Graphs: toWire(ds.Graphs)})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: predict/batch status %d: %s", when, resp.StatusCode, body)
		}
		var got PredictBatchResponse
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got.Classes[i] != want[i] {
				t.Fatalf("%s: graph %d served %d, GRAPHHD2 predictor %d", when, i, got.Classes[i], want[i])
			}
		}
	}
	predictAll("after load")
	if resp, body := postJSON(t, srv.URL+"/admin/reload", struct{}{}); resp.StatusCode != http.StatusOK {
		t.Fatalf("reload status %d: %s", resp.StatusCode, body)
	}
	predictAll("after reload")

	for _, route := range []string{"/v1/model", "/v1/models", "/metrics"} {
		resp, err := http.Get(srv.URL + route)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", route, resp.StatusCode)
		}
		for _, bad := range []string{"cascade", `stage="escalate"`} {
			if bytes.Contains(body, []byte(bad)) {
				t.Fatalf("GET %s reports %q:\n%s", route, bad, body)
			}
		}
	}
}
