package serve

// The Registry is the multi-tenant model store: a set of named packed
// predictors, each resident as one Engine the registry builds. Packed
// GraphHD predictors are tiny (k·d/8 bytes — a few KB at d=10k), so the
// natural deployment keeps *many* models resident in one process; the
// registry makes that explicit with a total-packed-bytes budget and LRU
// eviction, and owns everything about a model's lifecycle:
//
//   - Loading artifacts (LoadFile/Reload). A file that fails to load
//     aborts the install, leaving the current model serving.
//   - Hot swap. Swap stores the new predictor in the model's atomic
//     pointer — zero failed in-flight requests; every encode call that
//     takes a slot afterwards runs the new model.
//   - Residency. The request path reads the model table through a
//     copy-on-write map behind an atomic pointer (no lock, no contention
//     with loads/evictions); each routed request stamps the model's
//     atomic last-used timestamp, and a Load that would exceed
//     MaxResidentBytes evicts least-recently-used models until the
//     newcomer fits. Status reads leave the stamp alone.
//
// Mutations (load, evict, swap, reload) serialize on one mutex; evicted
// models drain outside it so a slow shutdown never blocks the table.
//
// The registry's clock stamps both the LRU and every model's stage clock,
// and its one flight recorder, TraceDepth records deep, takes every
// model's trace records, so GET /debug/traces reads one ring however many
// models are resident.

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"graphhd/internal/core"
)

// Errors returned by the registry and router layers.
var (
	// ErrModelNotFound means the named model is not resident; the HTTP
	// front end maps it to 404.
	ErrModelNotFound = errors.New("serve: model not found")
	// ErrModelTooLarge means a single model's packed footprint exceeds
	// MaxResidentBytes — no amount of eviction can make it fit.
	ErrModelTooLarge = errors.New("serve: model exceeds resident-bytes budget")
	// ErrRegistryClosed means the registry has been shut down.
	ErrRegistryClosed = errors.New("serve: registry closed")
)

// RegistryOptions configures a Registry. The zero value of any field
// selects its default.
type RegistryOptions struct {
	// Workers is each model's number of encode slots: how many encode
	// calls on that model run at once, each on its caller's goroutine.
	// Non-positive means GOMAXPROCS.
	Workers int
	// MaxBatch bounds the graphs one encode call takes: a batch call is
	// split into segments of at most MaxBatch graphs. Default 64.
	MaxBatch int
	// QueueSize bounds each model's graphs admitted but still waiting for
	// a slot, across single and batch requests. Requests beyond it fail
	// with ErrOverloaded. Default 4096.
	QueueSize int
	// TraceDepth is the capacity, in per-batch trace records, of the
	// registry's one flight recorder, which every model writes; it rounds
	// up to a power of two. Non-positive selects DefaultTraceDepth.
	// Memory is fixed at 136 bytes per record.
	TraceDepth int
	// MaxResidentBytes bounds the summed packed footprint of resident
	// models. A Load past the bound evicts least-recently-used models
	// until the newcomer fits; a model that alone exceeds the bound is
	// refused with ErrModelTooLarge. Zero means unbounded.
	MaxResidentBytes int64
}

// Registry is the named-model store. Create one with NewRegistry; it is
// safe for concurrent use.
type Registry struct {
	opts  RegistryOptions // defaults resolved
	epoch time.Time       // LRU and stage clocks: nanos since epoch
	rec   *flightRecorder // every model's trace records

	// models is the copy-on-write lookup table: readers load the pointer,
	// writers build a fresh map under mu and publish it atomically.
	models atomic.Pointer[map[string]*Engine]

	bytes     atomic.Int64  // summed packed footprint of resident models
	evictions atomic.Uint64 // models evicted by the resident-bytes bound

	mu     sync.Mutex // serializes load/evict/swap/reload/close
	closed bool
}

// NewRegistry builds an empty registry.
func NewRegistry(opts RegistryOptions) *Registry {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.MaxBatch <= 0 {
		opts.MaxBatch = 64
	}
	if opts.QueueSize <= 0 {
		opts.QueueSize = 4096
	}
	rec := newFlightRecorder(opts.TraceDepth)
	opts.TraceDepth = rec.depth()
	r := &Registry{opts: opts, epoch: time.Now(), rec: rec}
	m := map[string]*Engine{}
	r.models.Store(&m)
	return r
}

// nanos is the registry's monotonic clock (time.Since reads the
// monotonic clock): LRU stamps and every model's stage clock.
func (r *Registry) nanos() int64 { return int64(time.Since(r.epoch)) }

// Options returns the registry's configuration with defaults resolved.
func (r *Registry) Options() RegistryOptions { return r.opts }

// model looks name up through the COW table, lock-free. It leaves the LRU
// clock alone: only a routed request stamps it (Router.target).
func (r *Registry) model(name string) (*Engine, bool) {
	m, ok := (*r.models.Load())[name]
	return m, ok
}

// publish installs a mutated copy of the model table. Callers hold mu.
func (r *Registry) publish(mut func(map[string]*Engine)) {
	old := *r.models.Load()
	nm := make(map[string]*Engine, len(old)+1)
	for k, v := range old {
		nm[k] = v
	}
	mut(nm)
	r.models.Store(&nm)
}

func validModelName(name string) error {
	if name == "" {
		return errors.New("serve: empty model name")
	}
	if strings.ContainsAny(name, "/ \t\n") {
		return fmt.Errorf("serve: invalid model name %q", name)
	}
	return nil
}

// Load installs pred under name, replacing an existing model of the same
// name via Swap. A new name gets a fresh engine; loading past
// MaxResidentBytes evicts least-recently-used models first.
func (r *Registry) Load(name string, pred *core.Predictor) error {
	return r.install(name, pred, "")
}

// LoadFile reads a model artifact of any record version and installs it
// under name. The path is remembered so Reload can re-read it.
func (r *Registry) LoadFile(name, path string) error {
	pred, err := r.loadArtifact(name, path)
	if err != nil {
		return err
	}
	return r.install(name, pred, path)
}

// loadArtifact reads a predictor without touching the table.
func (r *Registry) loadArtifact(name, path string) (*core.Predictor, error) {
	pred, err := core.LoadPredictorFile(path)
	if err != nil {
		return nil, fmt.Errorf("serve: load %q: %w", name, err)
	}
	return pred, nil
}

func (r *Registry) install(name string, pred *core.Predictor, path string) error {
	if err := validModelName(name); err != nil {
		return err
	}
	if pred == nil {
		return errors.New("serve: nil predictor")
	}
	bytes := int64(pred.MemoryBytes())
	if r.opts.MaxResidentBytes > 0 && bytes > r.opts.MaxResidentBytes {
		return fmt.Errorf("%w: %q needs %d bytes of %d",
			ErrModelTooLarge, name, bytes, r.opts.MaxResidentBytes)
	}

	var victims []*Engine
	// Deferred LIFO: mu unlocks first, then evicted engines drain outside
	// the lock.
	defer func() {
		for _, v := range victims {
			v.close()
		}
	}()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return ErrRegistryClosed
	}

	if m, ok := r.model(name); ok {
		victims = r.swapLocked(m, pred, bytes, path)
		return nil
	}

	victims = r.evictForLocked(bytes, name)
	m := &Engine{reg: r, name: name, bytes: bytes, path: path, slots: make(chan struct{}, r.opts.Workers)}
	for range r.opts.Workers {
		m.slots <- struct{}{}
	}
	m.pred.Store(pred)
	m.m.init(r.opts.MaxBatch)
	m.lastUsed.Store(r.nanos())
	r.publish(func(t map[string]*Engine) { t[name] = m })
	r.bytes.Add(bytes)
	return nil
}

// Swap installs a new predictor for name through the model's atomic
// pointer, so in-flight requests never fail.
func (r *Registry) Swap(name string, pred *core.Predictor) error {
	return r.swap(name, nil, pred, "")
}

// swap is Swap, recording a non-empty path as the model's artifact. A
// non-nil was is the model Reload read the path of: when name no longer
// names it, because it was evicted while the file was read, nothing is
// swapped and the model stays evicted.
func (r *Registry) swap(name string, was *Engine, pred *core.Predictor, path string) error {
	if pred == nil {
		return errors.New("serve: swap to nil predictor")
	}
	bytes := int64(pred.MemoryBytes())
	if r.opts.MaxResidentBytes > 0 && bytes > r.opts.MaxResidentBytes {
		return fmt.Errorf("%w: %q needs %d bytes of %d",
			ErrModelTooLarge, name, bytes, r.opts.MaxResidentBytes)
	}
	var victims []*Engine
	defer func() {
		for _, v := range victims {
			v.close()
		}
	}()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return ErrRegistryClosed
	}
	m, ok := r.model(name)
	if !ok || was != nil && m != was {
		return fmt.Errorf("%w: %q", ErrModelNotFound, name)
	}
	victims = r.swapLocked(m, pred, bytes, path)
	return nil
}

// swapLocked is the predictor swap plus byte accounting. Callers hold mu
// and close the returned victims after unlocking.
func (r *Registry) swapLocked(m *Engine, pred *core.Predictor, bytes int64, path string) []*Engine {
	var victims []*Engine
	if grow := bytes - m.bytes; grow > 0 {
		victims = r.evictForLocked(grow, m.name)
	}
	m.pred.Store(pred)
	m.m.reloads.Add(1)
	r.bytes.Add(bytes - m.bytes)
	m.bytes = bytes
	if path != "" {
		m.path = path
	}
	return victims
}

// evictForLocked removes least-recently-used models (never keep) until
// need more bytes fit under the budget, returning the victims for the
// caller to drain outside mu.
func (r *Registry) evictForLocked(need int64, keep string) []*Engine {
	if r.opts.MaxResidentBytes <= 0 {
		return nil
	}
	var victims []*Engine
	for r.bytes.Load()+need > r.opts.MaxResidentBytes {
		var lru *Engine
		for _, m := range *r.models.Load() {
			if m.name == keep {
				continue
			}
			if lru == nil || m.lastUsed.Load() < lru.lastUsed.Load() {
				lru = m
			}
		}
		if lru == nil {
			break
		}
		r.publish(func(t map[string]*Engine) { delete(t, lru.name) })
		r.bytes.Add(-lru.bytes)
		r.evictions.Add(1)
		victims = append(victims, lru)
	}
	return victims
}

// Evict removes name from the registry and drains its engine. Requests
// already admitted complete; later lookups see ErrModelNotFound.
func (r *Registry) Evict(name string) error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ErrRegistryClosed
	}
	m, ok := r.model(name)
	if !ok {
		r.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrModelNotFound, name)
	}
	r.publish(func(t map[string]*Engine) { delete(t, name) })
	r.bytes.Add(-m.bytes)
	r.mu.Unlock()
	m.close()
	return nil
}

// Reload re-reads name's remembered artifact path and swaps the result
// in. Models loaded in-memory (no path) return an error, and a model
// evicted while its artifact was read returns ErrModelNotFound.
func (r *Registry) Reload(name string) error {
	r.mu.Lock()
	m, ok := r.model(name)
	if !ok {
		r.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrModelNotFound, name)
	}
	path := m.path
	r.mu.Unlock()
	if path == "" {
		return fmt.Errorf("serve: model %q has no artifact path to reload", name)
	}
	// File IO runs outside mu; only the swap locks.
	pred, err := r.loadArtifact(name, path)
	if err != nil {
		return err
	}
	return r.swap(name, m, pred, path)
}

// ReloadAll reloads every model that has an artifact path — the SIGHUP
// and POST /admin/reload path. It returns the number of models reloaded
// and the joined errors of any that failed (each failure leaves that
// model's current version serving).
func (r *Registry) ReloadAll() (int, error) {
	r.mu.Lock()
	var names []string
	for name, m := range *r.models.Load() {
		if m.path != "" {
			names = append(names, name)
		}
	}
	r.mu.Unlock()
	sort.Strings(names)
	n := 0
	var errs []error
	for _, name := range names {
		if err := r.Reload(name); err != nil {
			errs = append(errs, err)
		} else {
			n++
		}
	}
	return n, errors.Join(errs...)
}

// Len reports the number of resident models.
func (r *Registry) Len() int { return len(*r.models.Load()) }

// Bytes reports the summed packed footprint of resident models.
func (r *Registry) Bytes() int64 { return r.bytes.Load() }

// Evictions reports how many models the resident-bytes bound has evicted.
func (r *Registry) Evictions() uint64 { return r.evictions.Load() }

// ModelStatus is one resident model's row in a RegistryStatus.
type ModelStatus struct {
	Name        string `json:"name"`
	Version     uint64 `json:"version"`
	Dimension   int    `json:"dimension"`
	Classes     int    `json:"classes"`
	PackedBytes int64  `json:"packed_bytes"`
	// Revision is the online-update count stamped into the serving
	// predictor when it was snapshotted — 0 for predictors straight from
	// Fit/Train. Compare against TrainerStatus.Revision to see unpromoted
	// drift.
	Revision uint64 `json:"revision,omitempty"`
	Path     string `json:"path,omitempty"`
	// InFlight, Accepted, Processed and Reloads are the model's engine
	// counters: graphs admitted but not yet classified, graphs admitted,
	// graphs classified, and swaps.
	InFlight  uint64 `json:"in_flight"`
	Accepted  uint64 `json:"accepted"`
	Processed uint64 `json:"processed"`
	Reloads   uint64 `json:"reloads"`
}

// RegistryStatus is the registry table snapshot behind GET /v1/models and
// cmd/inspect -models.
type RegistryStatus struct {
	Models     []ModelStatus `json:"models"` // sorted by name
	TotalBytes int64         `json:"total_bytes"`
	MaxBytes   int64         `json:"max_bytes,omitempty"`
	Evictions  uint64        `json:"evictions"`
}

// Status snapshots the registry table, models sorted by name.
func (r *Registry) Status() RegistryStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	table := *r.models.Load()
	st := RegistryStatus{
		Models:     make([]ModelStatus, 0, len(table)),
		TotalBytes: r.bytes.Load(),
		MaxBytes:   r.opts.MaxResidentBytes,
		Evictions:  r.evictions.Load(),
	}
	for _, m := range table {
		p := m.Predictor()
		reloads := m.Reloads()
		// processed before accepted, as in Engine.Metrics, so InFlight
		// cannot go negative.
		processed := m.m.processed.Load()
		accepted := m.m.accepted.Load()
		st.Models = append(st.Models, ModelStatus{
			Name:        m.name,
			Version:     reloads + 1,
			Dimension:   p.Dimension(),
			Classes:     p.NumClasses(),
			PackedBytes: m.bytes,
			Revision:    p.Revision(),
			Path:        m.path,
			InFlight:    accepted - processed,
			Accepted:    accepted,
			Processed:   processed,
			Reloads:     reloads,
		})
	}
	sort.Slice(st.Models, func(i, j int) bool { return st.Models[i].Name < st.Models[j].Name })
	return st
}

// Traces snapshots the registry's flight recorder, which every model
// writes: the retained trace records, newest ticket first.
func (r *Registry) Traces() []TraceRecord { return r.rec.snapshot() }

// Close evicts every model, stopping its trainer and draining its engine.
// The registry rejects all mutations afterwards. Close is idempotent.
func (r *Registry) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	table := *r.models.Load()
	empty := map[string]*Engine{}
	r.models.Store(&empty)
	r.bytes.Store(0)
	r.mu.Unlock()
	for _, m := range table {
		m.close()
	}
}
