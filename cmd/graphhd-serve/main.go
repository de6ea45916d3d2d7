// Command graphhd-serve is the online inference server: it loads packed
// GraphHD model artifacts (any record version, see cmd/graphhd -save /
// -save-packed) into a multi-tenant model registry and serves
// classifications over HTTP through a router that admits requests onto
// one engine per model (internal/serve). An engine encodes each request on
// the goroutine that serves it, under one of -workers encode slots.
//
// Usage:
//
//	graphhd-serve -model model.ghdp                     # one model, listen on :8080
//	graphhd-serve -models models/                       # every artifact in a directory
//	graphhd-serve -models alpha=a.ghdp,beta=b.ghdp -default-model alpha
//	graphhd-serve -model model.ghdp -tenant-quota 4096
//	graphhd-serve -models models/ -max-resident-bytes 67108864
//	graphhd-serve -model model.ghdp -workers 4 -max-batch 32
//	graphhd-serve -model model.ghdp -class-names mutagenic,non-mutagenic
//	graphhd-serve -model model.ghdp -debug-addr 127.0.0.1:6060 -log-json
//	graphhd-serve -model model.ghdp -feedback-model model.ghd   # online learning loop
//	graphhd-serve -model m.ghdp -feedback-model m.ghd -snapshot-every 64 -holdout-every 4
//
// Endpoints:
//
//	POST /v1/predict                       predict against the default model
//	POST /v1/predict/batch                 {"graphs": [...]}
//	POST /v1/models/{name}/predict         predict against a named model
//	POST /v1/models/{name}/predict/batch
//	POST /v1/feedback                      labeled feedback → online trainer
//	POST /v1/models/{name}/feedback
//	GET  /v1/model          default model card (config, build identity)
//	GET  /v1/models         registry table: models, engine counters, tenants
//	GET  /healthz           liveness probe (+ resident-model summary)
//	GET  /metrics           Prometheus text metrics, {model} labeled
//	GET  /debug/traces      flight recorder: one ring for every model
//	POST /admin/reload      hot-reload every file-backed model
//	POST /admin/models      load/evict/reload one model by name
//
// Tenancy rides on the X-Tenant request header; -tenant-quota bounds each
// tenant's in-flight graphs, shedding excess with 429 before it can touch
// an engine.
//
// -feedback-model attaches the online learning loop: it loads a trainable
// full-model artifact (GRAPHHD1, cmd/graphhd -save) beside the packed
// serving predictor, drains POSTed feedback into it as perceptron-style
// updates, and — on the -snapshot-every / -snapshot-interval triggers —
// validates a candidate snapshot on held-out feedback against the serving
// model, then promotes it via a hot swap or rolls it back (the verdict,
// both holdout accuracies and the two models' agreement surface at
// GET /v1/models and in cmd/inspect -models). A single path attaches to
// the default model; use name=path,name=path to attach trainers to named
// models.
//
// With -debug-addr a second listener serves the diagnostics surface
// (/debug/pprof/*, /debug/vars, /debug/runtime, plus /debug/traces and
// /metrics). Profiling endpoints can stall the process and leak
// operational detail — bind -debug-addr to loopback or an operator-only
// network, never the public serving address (DESIGN.md §5).
//
// Logs are structured (log/slog, text by default, JSON with -log-json);
// per-request access logs carry the X-Request-Id echoed to clients and
// appear at -log-level debug.
//
// SIGHUP hot-reloads every file-backed model; in-flight requests never
// fail during a swap. SIGINT/SIGTERM shut down
// gracefully.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"graphhd/internal/core"
	"graphhd/internal/graph"
	"graphhd/internal/hdc"
	"graphhd/internal/serve"
)

// parseModelSpec resolves -models: either a directory (every *.ghdp/*.ghd
// file becomes a model named after its basename) or a comma-separated
// name=path list. Returns name→path pairs sorted by name.
func parseModelSpec(spec string) ([][2]string, error) {
	if fi, err := os.Stat(spec); err == nil && fi.IsDir() {
		entries, err := os.ReadDir(spec)
		if err != nil {
			return nil, err
		}
		var out [][2]string
		for _, e := range entries {
			if e.IsDir() {
				continue
			}
			ext := filepath.Ext(e.Name())
			if ext != ".ghdp" && ext != ".ghd" {
				continue
			}
			name := strings.TrimSuffix(e.Name(), ext)
			out = append(out, [2]string{name, filepath.Join(spec, e.Name())})
		}
		if len(out) == 0 {
			return nil, fmt.Errorf("no *.ghdp/*.ghd artifacts in %s", spec)
		}
		return out, nil
	}
	var out [][2]string
	for _, ent := range strings.Split(spec, ",") {
		name, path, ok := strings.Cut(strings.TrimSpace(ent), "=")
		if !ok || name == "" || path == "" {
			return nil, fmt.Errorf("bad -models entry %q (want name=path or a directory)", ent)
		}
		out = append(out, [2]string{name, path})
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out, nil
}

// parseFeedbackSpec resolves -feedback-model: a bare path attaches to the
// default model, name=path entries to named models.
func parseFeedbackSpec(spec, defaultModel string) [][2]string {
	var out [][2]string
	for _, ent := range strings.Split(spec, ",") {
		ent = strings.TrimSpace(ent)
		if ent == "" {
			continue
		}
		if name, path, ok := strings.Cut(ent, "="); ok && name != "" && path != "" {
			out = append(out, [2]string{name, path})
		} else {
			out = append(out, [2]string{defaultModel, ent})
		}
	}
	return out
}

func main() {
	var (
		model       = flag.String("model", "", "single model artifact served as \"default\" (this or -models is required)")
		models      = flag.String("models", "", "multi-model spec: a directory of *.ghdp/*.ghd artifacts, or name=path,name=path")
		defModel    = flag.String("default-model", "", "model the unnamed /v1/predict routes serve (default \"default\", else the first -models entry)")
		maxResident = flag.Int64("max-resident-bytes", 0, "total packed bytes of resident models; loading past it evicts least-recently-used models (0 = unbounded)")
		tenantQuota = flag.Int("tenant-quota", 0, "per-tenant in-flight graph quota, shed with 429 before queueing (0 = unlimited)")
		addr        = flag.String("addr", ":8080", "HTTP listen address")
		debugAddr   = flag.String("debug-addr", "", "diagnostics listen address (pprof, expvar, runtime stats); keep it loopback/operator-only — empty disables")
		workers     = flag.Int("workers", 0, "encode slots per model: how many encode calls run at once (0 = all cores)")
		maxBatch    = flag.Int("max-batch", 0, "most graphs one encode call takes: batch requests split into segments of this size (0 = default 64)")
		queueSize   = flag.Int("queue", 0, "graphs per model admitted to wait for an encode slot; past it requests get 429 (0 = default 4096)")
		traceDepth  = flag.Int("trace-depth", 0, "flight-recorder capacity in per-batch trace records, one ring shared by every model, rounded up to a power of two (0 = default 256)")
		classNames  = flag.String("class-names", "", "comma-separated class names echoed in default-model responses")
		maxVerts    = flag.Int("max-vertices", 0, "per-request vertex cap (0 = default; bounds server-side basis-vector memory)")
		maxEdges    = flag.Int("max-edges", 0, "per-request edge cap (0 = default)")
		logLevel    = flag.String("log-level", "info", "log level: debug, info, warn or error (debug enables per-request access logs)")
		logJSON     = flag.Bool("log-json", false, "emit logs as JSON instead of text")

		feedbackModel = flag.String("feedback-model", "", "trainable full-model artifact (GRAPHHD1, cmd/graphhd -save) enabling the online learning loop: a path (attaches to the default model) or name=path,name=path")
		feedbackBuf   = flag.Int("feedback-buffer", 0, "feedback buffer bound in samples; a full buffer sheds with 429 (0 = default 1024)")
		snapEvery     = flag.Int("snapshot-every", 0, "validate a candidate snapshot after this many trained feedback samples (0 = default 256)")
		snapInterval  = flag.Duration("snapshot-interval", 0, "additionally validate on this timer, catching trickle feedback (0 = off)")
		holdoutEvery  = flag.Int("holdout-every", 0, "divert every Nth feedback sample to the validation holdout instead of training (0 = default 8)")
		valTolerance  = flag.Float64("validation-tolerance", 0, "how far candidate holdout accuracy may trail the serving predictor before rollback (0 = default 0.02)")
	)
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "graphhd-serve: bad -log-level %q: %v\n", *logLevel, err)
		os.Exit(2)
	}
	hopts := &slog.HandlerOptions{Level: level}
	var lh slog.Handler = slog.NewTextHandler(os.Stderr, hopts)
	if *logJSON {
		lh = slog.NewJSONHandler(os.Stderr, hopts)
	}
	log := slog.New(lh)
	fatal := func(msg string, err error) {
		log.Error(msg, "err", err)
		os.Exit(1)
	}

	if *model == "" && *models == "" {
		fmt.Fprintln(os.Stderr, "graphhd-serve: -model or -models is required")
		flag.Usage()
		os.Exit(2)
	}
	registry := serve.NewRegistry(serve.RegistryOptions{
		Engine: serve.Options{
			Workers:    *workers,
			MaxBatch:   *maxBatch,
			QueueSize:  *queueSize,
			TraceDepth: *traceDepth,
		},
		MaxResidentBytes: *maxResident,
	})
	defer registry.Close()

	var entries [][2]string
	if *model != "" {
		entries = append(entries, [2]string{"default", *model})
	}
	if *models != "" {
		more, err := parseModelSpec(*models)
		if err != nil {
			fatal("parse -models", err)
		}
		entries = append(entries, more...)
	}
	for _, ent := range entries {
		if err := registry.LoadFile(ent[0], ent[1]); err != nil {
			fatal("load model", err)
		}
	}
	defaultModel := *defModel
	if defaultModel == "" {
		defaultModel = entries[0][0]
	}

	router := serve.NewRouter(registry, serve.RouterOptions{
		DefaultModel: defaultModel,
		TenantQuota:  *tenantQuota,
	})

	// Attach online trainers. The trainable artifact is loaded beside the
	// packed serving predictor; the registry owns the trainer's lifecycle
	// from here (it stops when the model is evicted or the registry
	// closes).
	if *feedbackModel != "" {
		topts := serve.TrainerOptions{
			BufferSize:          *feedbackBuf,
			SnapshotEvery:       *snapEvery,
			SnapshotInterval:    *snapInterval,
			HoldoutEvery:        *holdoutEvery,
			ValidationTolerance: *valTolerance,
		}
		for _, ent := range parseFeedbackSpec(*feedbackModel, defaultModel) {
			m, err := core.LoadModelFile(ent[1])
			if err != nil {
				fatal("load -feedback-model", err)
			}
			tr, err := registry.AttachTrainer(ent[0], m, topts)
			if err != nil {
				fatal("attach trainer", err)
			}
			// Log the trainer's resolved options, not the zero flags.
			eff := tr.Options()
			log.Info("online trainer attached", "model", ent[0], "artifact", ent[1],
				"buffer", eff.BufferSize, "snapshot_every", eff.SnapshotEvery)
		}
	}

	var names []string
	if *classNames != "" {
		names = strings.Split(*classNames, ",")
	}
	srv := &http.Server{
		Addr: *addr,
		Handler: serve.NewHandler(router, serve.HandlerOptions{
			ClassNames: names,
			Limits:     graph.CodecLimits{MaxVertices: *maxVerts, MaxEdges: *maxEdges},
			Logger:     log,
		}),
	}

	// The diagnostics surface gets its own listener and server so its
	// security posture (loopback-only bind) is independent of the
	// serving address.
	var dbgSrv *http.Server
	if *debugAddr != "" {
		dbgSrv = &http.Server{Addr: *debugAddr, Handler: serve.NewDebugHandler(router)}
		go func() {
			log.Info("debug listener up", "addr", *debugAddr)
			if err := dbgSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
				log.Error("debug listener", "err", err)
			}
		}()
	}

	// SIGHUP hot-reloads every file-backed model; SIGINT/SIGTERM drain
	// and exit.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			n, err := registry.ReloadAll()
			if err != nil {
				log.Warn("SIGHUP reload failed", "err", err, "reloaded", n)
				continue
			}
			log.Info("models reloaded", "models", n)
		}
	}()
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	shutdownDone := make(chan struct{})
	go func() {
		<-stop
		log.Info("shutting down")
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Warn("shutdown", "err", err)
		}
		if dbgSrv != nil {
			dbgSrv.Shutdown(ctx)
		}
		close(shutdownDone)
	}()

	ks := hdc.Kernels()
	bi := serve.Build()
	log.Info("starting",
		"build", bi.GoVersion, "revision", bi.VCSRevision,
		"kernel", ks.Active.String(), "cpu", ks.CPUFeatures,
	)
	st := registry.Status()
	log.Info("registry",
		"addr", *addr,
		"models", len(st.Models),
		"resident_bytes", st.TotalBytes,
		"max_resident_bytes", *maxResident,
		"default_model", defaultModel,
		"tenant_quota", *tenantQuota,
	)
	for _, ms := range st.Models {
		log.Info("model loaded",
			"model", ms.Name, "path", ms.Path,
			"dimension", ms.Dimension, "classes", ms.Classes,
			"packed_bytes", ms.PackedBytes,
		)
	}
	if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		fatal("listen", err)
	}
	// ListenAndServe returns as soon as the listener closes; wait for
	// Shutdown to finish draining in-flight responses before Close tears
	// the registry down.
	<-shutdownDone
}
