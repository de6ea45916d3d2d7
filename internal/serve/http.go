package serve

import (
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"graphhd/internal/core"
	"graphhd/internal/graph"
	"graphhd/internal/hdc"
)

// HTTP front end for the Router: the wire protocol of cmd/graphhd-serve.
//
//	POST /v1/predict                       {"graph": {...}}         → {"class": c}
//	POST /v1/predict/batch                 {"graphs": [{...}, ...]} → {"classes": [...]}
//	POST /v1/models/{model}/predict        same, routed to a named model
//	POST /v1/models/{model}/predict/batch  same, routed to a named model
//	POST /v1/feedback                      {"graph": {...}, "label": c}  → online trainer
//	POST /v1/models/{model}/feedback       same, for a named model; also accepts {"samples": [...]}
//	GET  /v1/model          default model card (dimension, classes, config, build)
//	GET  /v1/models         registry table: every resident model
//	GET  /healthz           liveness probe (+ resident-model summary)
//	GET  /metrics           Prometheus text exposition, {model} labeled
//	GET  /debug/traces      flight recorder: one ring for every model
//	POST /admin/reload      hot-reload every file-backed model
//	POST /admin/models      {"action": "load"|"evict"|"reload", "name": ..., "path": ...}
//
// The unnamed predict routes delegate to the router's default model, so a
// single-model deployment keeps its PR 3 wire protocol unchanged. Tenancy
// rides on the X-Tenant request header (absent → "default"); a tenant past
// its in-flight quota gets 429 without its request touching any engine
// queue. Admission-control rejections map to 429, unknown models to 404,
// malformed or config-incompatible graphs to 400.
//
// Graphs travel in the internal/graph JSON wire form. Every response
// carries an X-Request-Id header; with a Logger configured each request
// is logged structurally under that id.
//
// NewDebugHandler builds the separate diagnostics surface (pprof, expvar,
// runtime stats) cmd/graphhd-serve mounts on -debug-addr.

// HandlerOptions configures NewHandler.
type HandlerOptions struct {
	// ClassNames optionally maps class indices to names echoed in predict
	// responses (e.g. Dataset.ClassNames). They describe the default
	// model; responses for other named models carry indices only.
	ClassNames []string
	// Limits bounds decoded request graphs; the zero value applies
	// graph.DefaultCodecLimits.
	Limits graph.CodecLimits
	// MaxBodyBytes caps request bodies; non-positive means 32 MiB.
	MaxBodyBytes int64
	// Logger receives structured per-request access logs (level Debug;
	// level Warn for 5xx and 429 responses) keyed by request id. Nil
	// disables request logging; request ids are assigned either way.
	Logger *slog.Logger
}

// PredictRequest is the body of POST /v1/predict.
type PredictRequest struct {
	Graph *graph.GraphJSON `json:"graph"`
}

// PredictResponse is the body of a successful POST /v1/predict.
type PredictResponse struct {
	Class     int    `json:"class"`
	ClassName string `json:"class_name,omitempty"`
}

// PredictBatchRequest is the body of POST /v1/predict/batch.
type PredictBatchRequest struct {
	Graphs []*graph.GraphJSON `json:"graphs"`
}

// PredictBatchResponse is the body of a successful POST /v1/predict/batch.
type PredictBatchResponse struct {
	Classes    []int    `json:"classes"`
	ClassNames []string `json:"class_names,omitempty"`
}

// FeedbackRequest is the body of POST /v1/feedback: one labeled graph,
// or several under "samples" (both forms may be combined). Labels index
// the model's class space, [0, classes).
type FeedbackRequest struct {
	Graph   *graph.GraphJSON `json:"graph,omitempty"`
	Label   *int             `json:"label,omitempty"`
	Samples []FeedbackSample `json:"samples,omitempty"`
}

// FeedbackSample is one labeled graph in a FeedbackRequest.
type FeedbackSample struct {
	Graph *graph.GraphJSON `json:"graph"`
	Label *int             `json:"label"`
}

// FeedbackResponse is the body of a successful POST /v1/feedback.
type FeedbackResponse struct {
	// Accepted is how many samples entered the feedback buffer.
	Accepted int `json:"accepted"`
	// Buffered is the buffer's fill after this request.
	Buffered int `json:"buffered"`
}

// ModelInfo is the body of GET /v1/model: the model card of the default
// model's current predictor, plus the SIMD kernel tier the process is
// actually running and a summary of the registry it lives in.
type ModelInfo struct {
	Model              string `json:"model"`
	Version            uint64 `json:"version"`
	Dimension          int    `json:"dimension"`
	Classes            int    `json:"classes"`
	MemoryBytes        int    `json:"memory_bytes"`
	Centrality         string `json:"centrality"`
	PageRankIterations int    `json:"page_rank_iterations"`
	Seed               uint64 `json:"seed"`
	UseVertexLabels    bool   `json:"use_vertex_labels"`
	// Reloads counts swaps since the model was loaded.
	Reloads     uint64 `json:"reloads"`
	KernelTier  string `json:"kernel_tier"`
	CPUFeatures string `json:"cpu_features,omitempty"`
	// GoVersion and VCSRevision identify the build serving this model
	// (see BuildInfo); VCSRevision is empty for unstamped builds.
	GoVersion   string `json:"go_version"`
	VCSRevision string `json:"vcs_revision,omitempty"`
	// Revision is the online-update count stamped into the serving
	// predictor when it was snapshotted; 0 for predictors straight from
	// Fit/Train. A gap against the trainer's live revision means updates
	// not yet promoted.
	Revision uint64 `json:"revision"`
	// ModelsResident and RegistryBytes summarize the registry this model
	// is resident in.
	ModelsResident int   `json:"models_resident"`
	RegistryBytes  int64 `json:"registry_bytes"`
}

// ModelsResponse is the body of GET /v1/models: the registry table plus
// router-level tenancy state — what cmd/inspect -models renders.
type ModelsResponse struct {
	DefaultModel string         `json:"default_model"`
	Registry     RegistryStatus `json:"registry"`
	Tenants      []TenantStatus `json:"tenants,omitempty"`
	// Trainers lists the online learning loops attached to resident
	// models, including each one's last promote/rollback verdict.
	Trainers []TrainerStatus `json:"trainers,omitempty"`
}

// AdminModelRequest is the body of POST /admin/models.
type AdminModelRequest struct {
	// Action is "load" (read Path, install under Name), "evict" (remove
	// Name), or "reload" (re-read Name's remembered artifact path).
	Action string `json:"action"`
	Name   string `json:"name"`
	Path   string `json:"path,omitempty"`
}

// errorResponse is the JSON body of every non-2xx response.
type errorResponse struct {
	Error string `json:"error"`
}

type handler struct {
	rt   *Router
	opts HandlerOptions
}

// NewHandler wraps a router in the HTTP API described above.
func NewHandler(rt *Router, opts HandlerOptions) http.Handler {
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = 32 << 20
	}
	h := &handler{rt: rt, opts: opts}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/predict", func(w http.ResponseWriter, r *http.Request) {
		h.predict(w, r, "")
	})
	mux.HandleFunc("POST /v1/predict/batch", func(w http.ResponseWriter, r *http.Request) {
		h.predictBatch(w, r, "")
	})
	mux.HandleFunc("POST /v1/models/{model}/predict", func(w http.ResponseWriter, r *http.Request) {
		h.predict(w, r, r.PathValue("model"))
	})
	mux.HandleFunc("POST /v1/models/{model}/predict/batch", func(w http.ResponseWriter, r *http.Request) {
		h.predictBatch(w, r, r.PathValue("model"))
	})
	mux.HandleFunc("POST /v1/feedback", func(w http.ResponseWriter, r *http.Request) {
		h.feedback(w, r, "")
	})
	mux.HandleFunc("POST /v1/models/{model}/feedback", func(w http.ResponseWriter, r *http.Request) {
		h.feedback(w, r, r.PathValue("model"))
	})
	mux.HandleFunc("GET /v1/model", h.model)
	mux.HandleFunc("GET /v1/models", h.models)
	mux.HandleFunc("GET /healthz", h.healthz)
	mux.HandleFunc("GET /metrics", h.metrics)
	mux.HandleFunc("GET /debug/traces", h.traces)
	mux.HandleFunc("POST /admin/reload", h.reload)
	mux.HandleFunc("POST /admin/models", h.adminModels)
	return requestLog(opts.Logger, mux)
}

// reqBase randomizes the id space per process so ids from different
// processes don't collide in aggregated logs; the counter makes each id
// unique and roughly ordered within a process.
var (
	reqBase = rand.Uint64()
	reqSeq  atomic.Uint64
)

func nextRequestID() string {
	return strconv.FormatUint(reqBase^(reqSeq.Add(1)*0x9e3779b97f4a7c15), 16)
}

// statusWriter captures the response status and size for the access log.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += n
	return n, err
}

// requestLog assigns every request an id (echoed as X-Request-Id) and,
// with a logger configured, emits one structured access-log line per
// request: Debug for the happy path so a saturated server isn't
// throttled by its own logging, Warn for server-side failures and shed
// load (429).
func requestLog(log *slog.Logger, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := nextRequestID()
		w.Header().Set("X-Request-Id", id)
		if log == nil {
			next.ServeHTTP(w, r)
			return
		}
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(sw, r)
		level := slog.LevelDebug
		if sw.status >= 500 || sw.status == http.StatusTooManyRequests {
			level = slog.LevelWarn
		}
		if !log.Enabled(r.Context(), level) {
			return
		}
		log.LogAttrs(r.Context(), level, "request",
			slog.String("id", id),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", sw.status),
			slog.Int("bytes", sw.bytes),
			slog.Duration("duration", time.Since(start)),
		)
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

// writeEngineError maps router, engine, trainer and registry errors onto
// HTTP status codes. Both shed-load conditions — a full engine queue and
// an exhausted tenant quota — map to 429; the distinction is visible in
// the body and in which counter moved.
func writeEngineError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrOverloaded), errors.Is(err, ErrQuotaExceeded),
		errors.Is(err, ErrFeedbackBufferFull):
		writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, ErrModelNotFound), errors.Is(err, ErrNoTrainer):
		writeError(w, http.StatusNotFound, err)
	case errors.Is(err, ErrBadFeedbackLabel):
		writeError(w, http.StatusBadRequest, err)
	case errors.Is(err, ErrModelTooLarge):
		writeError(w, http.StatusInsufficientStorage, err)
	case errors.Is(err, ErrClosed), errors.Is(err, ErrRegistryClosed),
		errors.Is(err, ErrTrainerClosed):
		writeError(w, http.StatusServiceUnavailable, err)
	default:
		writeError(w, http.StatusInternalServerError, err)
	}
}

// decode reads a JSON request body of at most MaxBodyBytes into v. It
// answers 400 and returns false when the body does not decode.
func (h *handler) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, h.opts.MaxBodyBytes)).Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: decode request: %w", err))
		return false
	}
	return true
}

// tenantOf extracts the request's tenant from the X-Tenant header.
func tenantOf(r *http.Request) string {
	return r.Header.Get("X-Tenant")
}

// decodeGraph validates one wire graph against the codec limits and the
// target model's encoder configuration.
func (h *handler) decodeGraph(w *graph.GraphJSON, pred *core.Predictor) (*graph.Graph, error) {
	if w == nil {
		return nil, errors.New("serve: missing graph")
	}
	g, err := w.Graph(h.opts.Limits)
	if err != nil {
		return nil, err
	}
	if g.Labeled() && !pred.Encoder().Config().UseVertexLabels {
		return nil, errors.New("serve: vertex_labels supplied but the loaded model does not use vertex labels")
	}
	return g, nil
}

// className maps a class index onto the configured default-model class
// names; named-model responses (model != "") carry indices only.
func (h *handler) className(model string, c int) string {
	if model == "" && c >= 0 && c < len(h.opts.ClassNames) {
		return h.opts.ClassNames[c]
	}
	return ""
}

func (h *handler) predict(w http.ResponseWriter, r *http.Request, model string) {
	var req PredictRequest
	if !h.decode(w, r, &req) {
		return
	}
	pred, err := h.rt.Predictor(model)
	if err != nil {
		writeEngineError(w, err)
		return
	}
	g, err := h.decodeGraph(req.Graph, pred)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	class, err := h.rt.Predict(r.Context(), tenantOf(r), model, g)
	if err != nil {
		writeEngineError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, PredictResponse{Class: class, ClassName: h.className(model, class)})
}

func (h *handler) predictBatch(w http.ResponseWriter, r *http.Request, model string) {
	var req PredictBatchRequest
	if !h.decode(w, r, &req) {
		return
	}
	pred, err := h.rt.Predictor(model)
	if err != nil {
		writeEngineError(w, err)
		return
	}
	graphs := make([]*graph.Graph, len(req.Graphs))
	for i, wg := range req.Graphs {
		g, err := h.decodeGraph(wg, pred)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("graphs[%d]: %w", i, err))
			return
		}
		graphs[i] = g
	}
	classes, err := h.rt.PredictBatch(r.Context(), tenantOf(r), model, graphs)
	if err != nil {
		writeEngineError(w, err)
		return
	}
	resp := PredictBatchResponse{Classes: classes}
	if model == "" && len(h.opts.ClassNames) > 0 {
		resp.ClassNames = make([]string, len(classes))
		for i, c := range classes {
			resp.ClassNames[i] = h.className(model, c)
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// feedback ingests labeled graphs into the model's online trainer. Every
// failure mode has a deliberate non-500 mapping: malformed bodies,
// unvalidatable graphs and out-of-range labels are the client's fault
// (400), a model without a trainer is 404, and a full feedback buffer
// sheds with 429 — ingest pressure never turns into server errors or
// touches the predict path.
func (h *handler) feedback(w http.ResponseWriter, r *http.Request, model string) {
	var req FeedbackRequest
	if !h.decode(w, r, &req) {
		return
	}
	m, err := h.rt.target(model)
	if err != nil {
		writeEngineError(w, err)
		return
	}
	tr := m.trainer.Load()
	if tr == nil {
		writeEngineError(w, fmt.Errorf("%w: %q", ErrNoTrainer, m.name))
		return
	}

	// Collect the single-sample and batched forms, then validate every
	// graph and label before feeding any — a bad sample rejects the whole
	// request instead of half-applying it.
	samples := req.Samples
	if req.Graph != nil || req.Label != nil {
		samples = append([]FeedbackSample{{Graph: req.Graph, Label: req.Label}}, samples...)
	}
	if len(samples) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("serve: feedback needs a graph and label (or samples)"))
		return
	}
	pred := m.Predictor()
	graphs := make([]*graph.Graph, len(samples))
	labels := make([]int, len(samples))
	for i, s := range samples {
		if s.Label == nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("samples[%d]: missing label", i))
			return
		}
		if *s.Label < 0 || *s.Label >= tr.NumClasses() {
			writeError(w, http.StatusBadRequest,
				fmt.Errorf("samples[%d]: %w: %d not in [0,%d)", i, ErrBadFeedbackLabel, *s.Label, tr.NumClasses()))
			return
		}
		g, err := h.decodeGraph(s.Graph, pred)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("samples[%d]: %w", i, err))
			return
		}
		graphs[i], labels[i] = g, *s.Label
	}
	accepted := 0
	for i := range graphs {
		if err := tr.Feed(graphs[i], labels[i]); err != nil {
			// Partial ingest under buffer pressure is fine — feedback is
			// best-effort by design — but the client learns how far it got.
			if accepted > 0 && errors.Is(err, ErrFeedbackBufferFull) {
				writeJSON(w, http.StatusAccepted, FeedbackResponse{Accepted: accepted, Buffered: len(tr.buf)})
				return
			}
			writeEngineError(w, err)
			return
		}
		accepted++
	}
	writeJSON(w, http.StatusAccepted, FeedbackResponse{Accepted: accepted, Buffered: len(tr.buf)})
}

func (h *handler) model(w http.ResponseWriter, r *http.Request) {
	m, err := h.rt.lookup("")
	if err != nil {
		writeEngineError(w, err)
		return
	}
	reg := h.rt.Registry()
	p := m.Predictor()
	reloads := m.Reloads()
	cfg := p.Encoder().Config()
	ks := hdc.Kernels()
	bi := Build()
	info := ModelInfo{
		Model:              m.name,
		Version:            reloads + 1,
		Dimension:          cfg.Dimension,
		Classes:            p.NumClasses(),
		MemoryBytes:        p.MemoryBytes(),
		Centrality:         cfg.Centrality.String(),
		PageRankIterations: cfg.PageRankIterations,
		Seed:               cfg.Seed,
		UseVertexLabels:    cfg.UseVertexLabels,
		Reloads:            reloads,
		KernelTier:         ks.Active.String(),
		CPUFeatures:        ks.CPUFeatures,
		GoVersion:          bi.GoVersion,
		VCSRevision:        bi.VCSRevision,
		ModelsResident:     reg.Len(),
		RegistryBytes:      reg.Bytes(),
		Revision:           p.Revision(),
	}
	writeJSON(w, http.StatusOK, info)
}

func (h *handler) models(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, ModelsResponse{
		DefaultModel: h.rt.DefaultModel(),
		Registry:     h.rt.Registry().Status(),
		Tenants:      h.rt.Tenants(),
		Trainers:     h.rt.Registry().TrainerStatuses(),
	})
}

func (h *handler) healthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	// First line stays exactly "ok" for probes that match on it; the
	// kernel lines surface the SIMD dispatch decision, the model lines
	// the registry's residency.
	ks := hdc.Kernels()
	reg := h.rt.Registry()
	fmt.Fprintln(w, "ok")
	fmt.Fprintf(w, "kernel: %s\n", ks.Active)
	if ks.CPUFeatures != "" {
		fmt.Fprintf(w, "cpu: %s\n", ks.CPUFeatures)
	}
	fmt.Fprintf(w, "models: %d\n", reg.Len())
	fmt.Fprintf(w, "model_bytes: %d\n", reg.Bytes())
}

func (h *handler) metrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	WriteRouterMetrics(w, h.rt)
}

// TracesResponse is the body of GET /debug/traces: the per-batch trace
// records of every model retained in the registry's flight recorder,
// newest first.
type TracesResponse struct {
	Depth  int           `json:"depth"` // ring capacity in records
	Traces []TraceRecord `json:"traces"`
}

func (h *handler) traces(w http.ResponseWriter, r *http.Request) {
	reg := h.rt.Registry()
	writeJSON(w, http.StatusOK, TracesResponse{
		Depth:  reg.Options().TraceDepth,
		Traces: reg.Traces(),
	})
}

func (h *handler) reload(w http.ResponseWriter, r *http.Request) {
	n, err := h.rt.Registry().ReloadAll()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if n == 0 {
		writeError(w, http.StatusNotFound, errors.New("serve: no model has an artifact path to reload"))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"reloaded": true,
		"models":   n,
	})
}

// adminModels is the model-lifecycle endpoint: load a new artifact under
// a name, evict a resident model, or reload one from its remembered path.
func (h *handler) adminModels(w http.ResponseWriter, r *http.Request) {
	var req AdminModelRequest
	if !h.decode(w, r, &req) {
		return
	}
	if req.Name == "" {
		writeError(w, http.StatusBadRequest, errors.New("serve: model name required"))
		return
	}
	reg := h.rt.Registry()
	var err error
	switch req.Action {
	case "load":
		if req.Path == "" {
			writeError(w, http.StatusBadRequest, errors.New("serve: load needs a path"))
			return
		}
		err = reg.LoadFile(req.Name, req.Path)
	case "evict":
		err = reg.Evict(req.Name)
	case "reload":
		err = reg.Reload(req.Name)
	default:
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: unknown action %q", req.Action))
		return
	}
	if err != nil {
		writeEngineError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":     true,
		"action": req.Action,
		"name":   req.Name,
		"models": reg.Len(),
	})
}

// RuntimeStats is the body of GET /debug/runtime on the debug listener:
// a point-in-time Go runtime health summary for the serving process.
type RuntimeStats struct {
	Goroutines     int       `json:"goroutines"`
	HeapAllocBytes uint64    `json:"heap_alloc_bytes"`
	HeapSysBytes   uint64    `json:"heap_sys_bytes"`
	GCCycles       uint32    `json:"gc_cycles"`
	GCPauseSeconds float64   `json:"gc_pause_seconds_total"`
	LastGC         time.Time `json:"last_gc,omitempty"`
	Build          BuildInfo `json:"build"`
	Kernel         string    `json:"kernel"`
}

// NewDebugHandler builds the diagnostics mux cmd/graphhd-serve mounts on
// its separate -debug-addr listener:
//
//	/debug/pprof/*   net/http/pprof profiles (CPU, heap, goroutine, ...)
//	/debug/vars      expvar (cmdline, memstats)
//	/debug/traces    the registry's flight recorder (same payload as the API)
//	/debug/runtime   RuntimeStats JSON
//	/metrics         Prometheus exposition (so the debug port is scrapable)
//
// The profiling endpoints can stall the process (CPU profiles
// stop-the-world sample, heap dumps are large) and leak operational
// detail, which is why they live on their own listener: bind it to
// loopback or an operator-only network, never the serving address.
func NewDebugHandler(rt *Router) http.Handler {
	h := &handler{rt: rt}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("GET /debug/traces", h.traces)
	mux.HandleFunc("GET /debug/runtime", func(w http.ResponseWriter, r *http.Request) {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		st := RuntimeStats{
			Goroutines:     runtime.NumGoroutine(),
			HeapAllocBytes: ms.HeapAlloc,
			HeapSysBytes:   ms.HeapSys,
			GCCycles:       ms.NumGC,
			GCPauseSeconds: float64(ms.PauseTotalNs) * 1e-9,
			Build:          Build(),
			Kernel:         hdc.ActiveKernel().String(),
		}
		if ms.LastGC > 0 {
			st.LastGC = time.Unix(0, int64(ms.LastGC))
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("GET /metrics", h.metrics)
	return mux
}
