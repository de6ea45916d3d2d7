package serve

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"graphhd/internal/core"
	"graphhd/internal/graph"
)

// toWire converts graphs to their JSON wire form.
func toWire(gs []*graph.Graph) []*graph.GraphJSON {
	wire := make([]*graph.GraphJSON, len(gs))
	for i, g := range gs {
		wire[i] = graph.ToJSON(g)
	}
	return wire
}

// TestFlightRecorderBasics checks ring mechanics single-threaded:
// capacity rounding, ticket stamping, retention of exactly the newest
// depth records, newest-first snapshot order.
func TestFlightRecorderBasics(t *testing.T) {
	r := newFlightRecorder(5) // rounds up to 8
	if got := r.depth(); got != 8 {
		t.Fatalf("depth(5) = %d, want 8", got)
	}
	if got := newFlightRecorder(0).depth(); got != DefaultTraceDepth {
		t.Fatalf("depth(0) = %d, want %d", got, DefaultTraceDepth)
	}

	if snap := r.snapshot(); len(snap) != 0 {
		t.Fatalf("empty recorder snapshot has %d records", len(snap))
	}
	for i := 1; i <= 20; i++ {
		rec := TraceRecord{BatchSize: i}
		r.record(&rec)
		if rec.Seq != uint64(i) {
			t.Fatalf("record %d stamped seq %d", i, rec.Seq)
		}
	}
	snap := r.snapshot()
	if len(snap) != 8 {
		t.Fatalf("snapshot has %d records, want 8", len(snap))
	}
	for i, rec := range snap {
		if want := uint64(20 - i); rec.Seq != want {
			t.Fatalf("snapshot[%d].Seq = %d, want %d (newest first)", i, rec.Seq, want)
		}
		if rec.BatchSize != int(rec.Seq) {
			t.Fatalf("seq %d carries batch size %d (torn record?)", rec.Seq, rec.BatchSize)
		}
	}
}

// TestFlightRecorderConcurrent hammers a small ring from many writers
// while snapshotting concurrently; run under -race this is the data-race
// proof for the per-slot locking scheme. Every snapshot must be
// internally consistent: records readable, newest first, each record's
// fields from a single write (Seq and BatchSize are written in lockstep,
// so any mix would be visible).
func TestFlightRecorderConcurrent(t *testing.T) {
	r := newFlightRecorder(16)
	const writers = 8
	const perWriter = 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				rec := TraceRecord{BatchSize: 1, Tasks: w + 1, TotalNanos: int64(i)}
				r.record(&rec)
				// The caller's record must come back stamped with a
				// unique, nonzero ticket.
				if rec.Seq == 0 {
					t.Error("record left Seq zero")
					return
				}
			}
		}(w)
	}

	var readerWG sync.WaitGroup
	for g := 0; g < 4; g++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := r.snapshot()
				for i := 1; i < len(snap); i++ {
					if snap[i].Seq >= snap[i-1].Seq {
						t.Errorf("snapshot not strictly newest-first: %d then %d",
							snap[i-1].Seq, snap[i].Seq)
						return
					}
				}
				for _, rec := range snap {
					if rec.Tasks < 1 || rec.Tasks > writers || rec.BatchSize != 1 {
						t.Errorf("torn record: %+v", rec)
						return
					}
				}
			}
		}()
	}

	wg.Wait()
	close(stop)
	readerWG.Wait()

	if got := r.seq.Load(); got != writers*perWriter {
		t.Fatalf("tickets issued = %d, want %d", got, writers*perWriter)
	}
	snap := r.snapshot()
	if len(snap) != 16 {
		t.Fatalf("final snapshot has %d records, want full ring of 16", len(snap))
	}
}

// TestEngineTraces drives real traffic through an engine (cascade on, so
// the escalate stage is live) and checks the flight recorder tells a
// coherent story: every batch accounted, stage nanos populated, cascade
// outcomes summing to the batch size, and the stage histograms fed from
// the same clock.
func TestEngineTraces(t *testing.T) {
	pred, ds := testModel(t, 2048, 1)
	if err := pred.SetCascade(core.Cascade{DPrefix: 512, Margin: 8}); err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(pred, Options{
		Workers: 2, MaxBatch: 8, MaxDelay: 50 * time.Microsecond, TraceDepth: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if got := e.TraceDepth(); got != 64 {
		t.Fatalf("TraceDepth = %d, want 64", got)
	}

	if _, err := e.PredictBatch(context.Background(), ds.Graphs); err != nil {
		t.Fatal(err)
	}

	traces := e.Traces()
	if len(traces) == 0 {
		t.Fatal("no trace records after a batch predict")
	}
	var graphs int
	for _, tr := range traces {
		if tr.BatchSize <= 0 || tr.Tasks <= 0 {
			t.Fatalf("record %d: empty batch: %+v", tr.Seq, tr)
		}
		graphs += tr.BatchSize
		if tr.PlanNanos < 0 || tr.EncodeNanos <= 0 || tr.ClassifyNanos <= 0 {
			t.Fatalf("record %d: missing stage nanos: %+v", tr.Seq, tr)
		}
		if tr.TotalNanos < tr.PlanNanos+tr.EncodeNanos+tr.ClassifyNanos+tr.EscalateNanos {
			t.Fatalf("record %d: total %dns less than stage sum: %+v", tr.Seq, tr.TotalNanos, tr)
		}
		if tr.QueueWaitNanos < 0 || tr.DispatchNanos < 0 {
			t.Fatalf("record %d: negative wait: %+v", tr.Seq, tr)
		}
		if !tr.Cascade {
			t.Fatalf("record %d: cascade flag off with cascade model", tr.Seq)
		}
		if tr.Stage1+tr.Escalated != tr.BatchSize {
			t.Fatalf("record %d: stage1 %d + escalated %d != batch %d",
				tr.Seq, tr.Stage1, tr.Escalated, tr.BatchSize)
		}
		if tr.Kernel == "" {
			t.Fatalf("record %d: kernel tier missing", tr.Seq)
		}
		if tr.Time.IsZero() {
			t.Fatalf("record %d: zero timestamp", tr.Seq)
		}
	}
	if graphs != len(ds.Graphs) {
		t.Fatalf("trace records cover %d graphs, want %d", graphs, len(ds.Graphs))
	}

	// The same stage clock must have fed the histograms: batch counts
	// line up with the recorded batches.
	m := e.Metrics()
	if got := m.StagePlan.Count; got != uint64(len(traces)) {
		t.Fatalf("stage plan histogram count %d, want %d batches", got, len(traces))
	}
	if m.StageEscalate.Count != uint64(len(traces)) {
		t.Fatalf("stage escalate count %d, want %d (cascade active)", m.StageEscalate.Count, len(traces))
	}
	if m.QueueWait.Count == 0 {
		t.Fatal("queue wait histogram empty after traffic")
	}
	if m.QueueWait.Sum < 0 {
		t.Fatalf("queue wait sum negative: %v", m.QueueWait.Sum)
	}
}

// TestEngineTracesNoCascade checks the non-cascade path: escalate stays
// silent, records carry cascade=false.
func TestEngineTracesNoCascade(t *testing.T) {
	pred, ds := testModel(t, 2048, 1)
	e, err := NewEngine(pred, Options{Workers: 2, MaxBatch: 8, MaxDelay: 50 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.PredictBatch(context.Background(), ds.Graphs); err != nil {
		t.Fatal(err)
	}
	for _, tr := range e.Traces() {
		if tr.Cascade || tr.Stage1 != 0 || tr.Escalated != 0 || tr.EscalateNanos != 0 {
			t.Fatalf("non-cascade record carries cascade data: %+v", tr)
		}
	}
	if n := e.Metrics().StageEscalate.Count; n != 0 {
		t.Fatalf("escalate histogram observed %d batches without a cascade", n)
	}
}

// TestHTTPTraces exercises GET /debug/traces on the public handler.
func TestHTTPTraces(t *testing.T) {
	pred, ds := testModel(t, 2048, 1)
	srv, _ := startTestServer(t, pred, HandlerOptions{})

	resp, body := postJSON(t, srv.URL+"/v1/predict/batch", map[string]any{
		"graphs": toWire(ds.Graphs[:8]),
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch predict: %d: %s", resp.StatusCode, body)
	}

	r, err := http.Get(srv.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/traces: %d", r.StatusCode)
	}
	if ct := r.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("content type %q", ct)
	}
	var tr TracesResponse
	if err := json.NewDecoder(r.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	if tr.Depth != DefaultTraceDepth {
		t.Fatalf("depth = %d, want %d", tr.Depth, DefaultTraceDepth)
	}
	if len(tr.Traces) == 0 {
		t.Fatal("no traces after traffic")
	}
	if tr.Traces[0].BatchSize <= 0 {
		t.Fatalf("first trace: %+v", tr.Traces[0])
	}
}

// TestDebugHandler checks the diagnostics surface: pprof, expvar,
// runtime stats, traces and metrics are all mounted and respond.
func TestDebugHandler(t *testing.T) {
	pred, ds := testModel(t, 2048, 1)
	reg := NewRegistry(RegistryOptions{Engine: Options{Workers: 2, MaxBatch: 8, MaxDelay: 50 * time.Microsecond}})
	defer reg.Close()
	if err := reg.Load("default", pred); err != nil {
		t.Fatal(err)
	}
	rt := NewRouter(reg, RouterOptions{})
	if _, err := rt.PredictBatch(context.Background(), DefaultTenant, "", ds.Graphs[:8]); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewDebugHandler(rt))
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		r, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		b, err := io.ReadAll(r.Body)
		if err != nil {
			t.Fatal(err)
		}
		return r.StatusCode, string(b)
	}

	if code, body := get("/debug/pprof/cmdline"); code != http.StatusOK || body == "" {
		t.Errorf("/debug/pprof/cmdline: %d %q", code, body)
	}
	if code, body := get("/debug/pprof/"); code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ index: %d", code)
	}
	if code, body := get("/debug/vars"); code != http.StatusOK || !strings.Contains(body, "memstats") {
		t.Errorf("/debug/vars: %d %q", code, body[:min(len(body), 80)])
	}
	if code, body := get("/metrics"); code != http.StatusOK || !strings.Contains(body, "graphhd_stage_seconds_bucket") {
		t.Errorf("/metrics on debug listener: %d", code)
	}
	if code, body := get("/debug/traces"); code != http.StatusOK || !strings.Contains(body, "batch_size") {
		t.Errorf("/debug/traces on debug listener: %d %q", code, body[:min(len(body), 80)])
	}

	code, body := get("/debug/runtime")
	if code != http.StatusOK {
		t.Fatalf("/debug/runtime: %d", code)
	}
	var rs RuntimeStats
	if err := json.Unmarshal([]byte(body), &rs); err != nil {
		t.Fatalf("/debug/runtime decode: %v", err)
	}
	if rs.Goroutines <= 0 || rs.HeapAllocBytes == 0 {
		t.Fatalf("/debug/runtime implausible: %+v", rs)
	}
	if rs.Build.GoVersion == "" {
		t.Fatalf("/debug/runtime missing build identity: %+v", rs)
	}
	if rs.Kernel == "" {
		t.Fatalf("/debug/runtime missing kernel tier: %+v", rs)
	}
}

// TestRequestIDAndLogging checks every response carries a unique
// X-Request-Id and that a debug-level logger records access lines with
// matching ids and status codes.
func TestRequestIDAndLogging(t *testing.T) {
	pred, ds := testModel(t, 2048, 1)

	var buf syncBuffer
	logger := slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	srv, _ := startTestServer(t, pred, HandlerOptions{Logger: logger})

	ids := map[string]bool{}
	for i := 0; i < 3; i++ {
		resp, body := postJSON(t, srv.URL+"/v1/predict", map[string]any{
			"graph": toWire(ds.Graphs[i : i+1])[0],
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("predict: %d: %s", resp.StatusCode, body)
		}
		id := resp.Header.Get("X-Request-Id")
		if id == "" {
			t.Fatal("response missing X-Request-Id")
		}
		if ids[id] {
			t.Fatalf("duplicate request id %q", id)
		}
		ids[id] = true
	}

	logged := buf.String()
	for id := range ids {
		if !strings.Contains(logged, id) {
			t.Errorf("access log missing request id %q:\n%s", id, logged)
		}
	}
	if !strings.Contains(logged, "/v1/predict") || !strings.Contains(logged, "status=200") {
		t.Errorf("access log missing request fields:\n%s", logged)
	}
}

// syncBuffer is a goroutine-safe strings.Builder for capturing logs.
type syncBuffer struct {
	mu sync.Mutex
	sb strings.Builder
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.String()
}
