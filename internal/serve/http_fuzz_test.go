package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"graphhd/internal/graph"
)

// Handler-level fuzz targets for the two body-reading surfaces that take
// graphs from clients. Whatever the body, the handler must answer 2xx or
// one of its documented client errors (400, or 429 when it sheds load)
// with a JSON error body; a 5xx or a panic is a failure. Run with
// `go test -fuzz FuzzHTTPPredict ./internal/serve` (or FuzzHTTPFeedback)
// for continuous fuzzing; the seeds run in normal test mode.

// fuzzLimits keeps each exec cheap; the decoder paths are the same at any
// limit.
var fuzzLimits = graph.CodecLimits{MaxVertices: 64, MaxEdges: 256, MaxVertexLabel: 8}

// wireSeeds are the CI smoke bodies and the TestHTTPBadRequests graphs.
var wireSeeds = []string{
	`{"num_vertices":4,"edges":[[0,1],[1,2],[2,3],[3,0]]}`,
	`{"num_vertices":2,"edges":[[0,1]]}`,
	`{"num_vertices":2,"edges":[[0,5]]}`,
	`{"num_vertices":100,"edges":[]}`,
	`{"num_vertices":2,"edges":[[0,1]],"vertex_labels":[1,2]}`,
	`{"num_vertices":2,"edges":[[0,1.0]]}`,
	`{"num_vertices":2,"edges":[[0,1e0]]}`,
	`{"num_vertices":"2","edges":[[0,1]]}`,
	`{"num_vertices":2,"edges":[[0,"1"]]}`,
	`{"num_vertices":2,"edges":[[0,12345678901234567890]]}`,
	`{"num_vertices":2,"edges":{"0":1}}`,
	`{"num_vertices":3,"edges":[[0,1,2]]}`,
	`{"num_vertices":2,"edges":[[1]]}`,
	`{"num_vertices":2,"edges":null}`,
	`{"num_vertices":2,"EDGES":[[0,1]]}`,
}

// serveFuzz posts body to path and fails unless the status is one of ok
// or a 400/429 carrying a JSON error. It returns the recorded response.
func serveFuzz(t *testing.T, h http.Handler, path string, body []byte, ok ...int) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	switch rec.Code {
	case http.StatusBadRequest, http.StatusTooManyRequests:
		var er errorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error == "" {
			t.Fatalf("%s %q: status %d with non-error body %q", path, body, rec.Code, rec.Body)
		}
		return rec
	}
	for _, code := range ok {
		if rec.Code == code {
			return rec
		}
	}
	t.Fatalf("%s %q: status %d (%s)", path, body, rec.Code, rec.Body)
	return rec
}

func FuzzHTTPPredict(f *testing.F) {
	pred, _ := testModel(f, 128, 1)
	reg := NewRegistry(testRegistryOptions())
	if err := reg.Load("default", pred); err != nil {
		f.Fatal(err)
	}
	f.Cleanup(reg.Close)
	h := NewHandler(NewRouter(reg, RouterOptions{}), HandlerOptions{Limits: fuzzLimits})
	for _, g := range wireSeeds {
		f.Add(false, []byte(`{"graph":`+g+`}`))
		f.Add(true, []byte(`{"graphs":[`+g+`,`+wireSeeds[0]+`]}`))
	}
	f.Add(false, []byte(`{`))
	f.Add(false, []byte(`{}`))
	f.Add(true, []byte(`{"graphs":null}`))
	f.Fuzz(func(t *testing.T, batch bool, body []byte) {
		if !batch {
			rec := serveFuzz(t, h, "/v1/predict", body, http.StatusOK)
			if rec.Code == http.StatusOK {
				var resp PredictResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || resp.Class < 0 || resp.Class >= pred.NumClasses() {
					t.Fatalf("%q: bad predict response %q", body, rec.Body)
				}
			}
			return
		}
		rec := serveFuzz(t, h, "/v1/predict/batch", body, http.StatusOK)
		if rec.Code == http.StatusOK {
			var resp PredictBatchResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("%q: bad batch response %q", body, rec.Body)
			}
		}
	})
}

func FuzzHTTPFeedback(f *testing.F) {
	m, _ := trainableModel(f, 128, false)
	reg := NewRegistry(testRegistryOptions())
	if err := reg.Load("default", m.Snapshot()); err != nil {
		f.Fatal(err)
	}
	f.Cleanup(reg.Close)
	// Park snapshots far away: the target is the ingest surface, not
	// promotion.
	if _, err := reg.AttachTrainer("default", m, TrainerOptions{BufferSize: 64, SnapshotEvery: 1 << 20}); err != nil {
		f.Fatal(err)
	}
	h := NewHandler(NewRouter(reg, RouterOptions{}), HandlerOptions{Limits: fuzzLimits})
	for _, g := range wireSeeds {
		f.Add([]byte(`{"graph":` + g + `,"label":0}`))
		f.Add([]byte(`{"samples":[{"graph":` + g + `,"label":1},{"graph":` + wireSeeds[0] + `,"label":0}]}`))
	}
	f.Add([]byte(`{"graph":` + wireSeeds[0] + `,"label":9}`))
	f.Add([]byte(`{"graph":` + wireSeeds[0] + `}`))
	f.Add([]byte(`{"label":0}`))
	f.Add([]byte(`{not json`))
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := serveFuzz(t, h, "/v1/feedback", body, http.StatusAccepted)
		if rec.Code == http.StatusAccepted {
			var resp FeedbackResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || resp.Accepted < 1 {
				t.Fatalf("%q: bad feedback response %q", body, rec.Body)
			}
		}
	})
}
