package serve

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"graphhd/internal/graph"
)

// TestHTTPFeedbackHardening pins the error contract of the feedback
// endpoint: every malformed request maps to a deliberate 4xx, never a
// 500, and a well-formed request is acknowledged with the accepted
// count. The trainer is attached mid-test so the no-trainer 404 is
// exercised against a model that otherwise serves fine.
func TestHTTPFeedbackHardening(t *testing.T) {
	m, ds := trainableModel(t, 2048, false)
	srv, rt := startTestStack(t, m.Snapshot(), RouterOptions{}, HandlerOptions{})
	wire := graph.ToJSON(ds.Graphs[0])
	label := ds.Labels[0]

	// Unknown model: 404 regardless of trainer state.
	resp, _ := postJSON(t, srv.URL+"/v1/models/nope/feedback", FeedbackRequest{Graph: wire, Label: &label})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown model: status %d, want 404", resp.StatusCode)
	}

	// Resident model without a trainer: also 404, with a distinct error.
	resp, body := postJSON(t, srv.URL+"/v1/models/default/feedback", FeedbackRequest{Graph: wire, Label: &label})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("no trainer: status %d, want 404", resp.StatusCode)
	}
	if !strings.Contains(string(body), "trainer") {
		t.Fatalf("no-trainer 404 should name the trainer, got %s", body)
	}

	// Park snapshots far away so the trainer never promotes mid-test.
	if _, err := rt.reg.AttachTrainer("default", m, TrainerOptions{BufferSize: 64, SnapshotEvery: 1 << 20}); err != nil {
		t.Fatal(err)
	}

	// Label outside [0, k): 400 on both boundaries.
	for _, bad := range []int{-1, m.NumClasses()} {
		bad := bad
		resp, body = postJSON(t, srv.URL+"/v1/models/default/feedback", FeedbackRequest{Graph: wire, Label: &bad})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("label %d: status %d, want 400 (%s)", bad, resp.StatusCode, body)
		}
	}

	// Structurally broken requests: missing label, missing graph, empty
	// body, malformed JSON. All 400.
	resp, _ = postJSON(t, srv.URL+"/v1/models/default/feedback", FeedbackRequest{Graph: wire})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing label: status %d, want 400", resp.StatusCode)
	}
	resp, _ = postJSON(t, srv.URL+"/v1/models/default/feedback", FeedbackRequest{Label: &label})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing graph: status %d, want 400", resp.StatusCode)
	}
	resp, _ = postJSON(t, srv.URL+"/v1/models/default/feedback", FeedbackRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty body: status %d, want 400", resp.StatusCode)
	}
	raw, err := http.Post(srv.URL+"/v1/models/default/feedback", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	raw.Body.Close()
	if raw.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: status %d, want 400", raw.StatusCode)
	}

	// A bad sample anywhere in a batch rejects the whole request.
	badLabel := -1
	resp, _ = postJSON(t, srv.URL+"/v1/models/default/feedback", FeedbackRequest{Samples: []FeedbackSample{
		{Graph: wire, Label: &label},
		{Graph: wire, Label: &badLabel},
	}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("mixed batch: status %d, want 400", resp.StatusCode)
	}
	tr := modelEngine(t, rt.reg, "default").trainer.Load()
	if got := tr.ingested.Load(); got != 0 {
		t.Fatalf("rejected batch must not half-apply: %d samples ingested", got)
	}

	// Well-formed single sample and batched form both land with counts.
	resp, body = postJSON(t, srv.URL+"/v1/feedback", FeedbackRequest{Graph: wire, Label: &label})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("single feedback: status %d, want 202 (%s)", resp.StatusCode, body)
	}
	var fr FeedbackResponse
	if err := json.Unmarshal(body, &fr); err != nil {
		t.Fatal(err)
	}
	if fr.Accepted != 1 {
		t.Fatalf("single feedback accepted = %d, want 1", fr.Accepted)
	}
	l1, l2 := ds.Labels[1], ds.Labels[2]
	resp, body = postJSON(t, srv.URL+"/v1/models/default/feedback", FeedbackRequest{Samples: []FeedbackSample{
		{Graph: graph.ToJSON(ds.Graphs[1]), Label: &l1},
		{Graph: graph.ToJSON(ds.Graphs[2]), Label: &l2},
	}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch feedback: status %d, want 202 (%s)", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &fr); err != nil {
		t.Fatal(err)
	}
	if fr.Accepted != 2 {
		t.Fatalf("batch feedback accepted = %d, want 2", fr.Accepted)
	}

	// The trainer surfaces on the fleet listing and the model info
	// carries its serving revision.
	listResp, err := http.Get(srv.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	var models ModelsResponse
	if err := json.NewDecoder(listResp.Body).Decode(&models); err != nil {
		t.Fatal(err)
	}
	listResp.Body.Close()
	if len(models.Trainers) != 1 || models.Trainers[0].Model != "default" {
		t.Fatalf("trainer missing from /v1/models: %+v", models.Trainers)
	}
}

// TestHTTPFeedbackBodyLimit caps the request body below the size of any
// real wire graph: the decode fails inside MaxBytesReader and the
// endpoint answers 400, not 500.
func TestHTTPFeedbackBodyLimit(t *testing.T) {
	m, ds := trainableModel(t, 2048, false)
	srv, rt := startTestStack(t, m.Snapshot(), RouterOptions{}, HandlerOptions{MaxBodyBytes: 64})
	if _, err := rt.reg.AttachTrainer("default", m, TrainerOptions{SnapshotEvery: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	label := ds.Labels[0]
	resp, body := postJSON(t, srv.URL+"/v1/feedback", FeedbackRequest{Graph: graph.ToJSON(ds.Graphs[0]), Label: &label})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized body: status %d, want 400 (%s)", resp.StatusCode, body)
	}
}

// TestHTTPFeedbackBufferFull drives the 429 path with a hand-built,
// goroutine-less trainer so the buffer stays exactly as full as the test
// makes it: a two-sample batch against a one-slot buffer partially
// applies (202, accepted 1), and the next sample is shed with 429.
func TestHTTPFeedbackBufferFull(t *testing.T) {
	m, ds := trainableModel(t, 2048, false)
	srv, rt := startTestStack(t, m.Snapshot(), RouterOptions{}, HandlerOptions{})
	tr := &Trainer{
		reg:   rt.reg,
		name:  "default",
		model: m,
		opts:  TrainerOptions{}.withDefaults(),
		buf:   make(chan feedbackSample, 1),
		stop:  make(chan struct{}),
	}
	modelEngine(t, rt.reg, "default").trainer.Store(tr)

	l0, l1 := ds.Labels[0], ds.Labels[1]
	resp, body := postJSON(t, srv.URL+"/v1/models/default/feedback", FeedbackRequest{Samples: []FeedbackSample{
		{Graph: graph.ToJSON(ds.Graphs[0]), Label: &l0},
		{Graph: graph.ToJSON(ds.Graphs[1]), Label: &l1},
	}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("partial ingest: status %d, want 202 (%s)", resp.StatusCode, body)
	}
	var fr FeedbackResponse
	if err := json.Unmarshal(body, &fr); err != nil {
		t.Fatal(err)
	}
	if fr.Accepted != 1 {
		t.Fatalf("partial ingest accepted = %d, want 1", fr.Accepted)
	}

	resp, body = postJSON(t, srv.URL+"/v1/models/default/feedback", FeedbackRequest{Graph: graph.ToJSON(ds.Graphs[0]), Label: &l0})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full buffer: status %d, want 429 (%s)", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "full") {
		t.Fatalf("429 body should explain the full buffer, got %s", body)
	}
	if got := tr.dropped.Load(); got != 2 {
		t.Fatalf("dropped = %d, want 2 (one from the batch, one from the retry)", got)
	}
}
