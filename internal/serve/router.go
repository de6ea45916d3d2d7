package serve

// The Router is the admission tier between transports and the registry's
// resident models. Per request it does two cheap things, in an order
// chosen so that rejected work never touches an engine queue:
//
//  1. Model lookup — lock-free through the registry's COW table
//     (ErrModelNotFound → 404); the empty model name selects the
//     configured default model, which is what keeps the original
//     single-model routes working unchanged. A request that serves or
//     feeds the model stamps its LRU clock; a lookup that only reads it
//     (Predictor, GET /v1/model) does not, so polling never keeps an
//     idle model resident.
//  2. Tenant admission — a CAS on the tenant's in-flight graph counter
//     against the quota. A rejection (ErrQuotaExceeded → 429) happens
//     before the model's engine is touched, so a noisy tenant cannot
//     consume queue slots that belong to others.
//
// The hot path allocates nothing: tenant states live in a sync.Map keyed
// by name and counters are atomics.

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"graphhd/internal/core"
	"graphhd/internal/graph"
)

// ErrQuotaExceeded means the tenant's in-flight graph quota is exhausted;
// the HTTP front end maps it to 429. Quota rejections happen before any
// engine queue is touched.
var ErrQuotaExceeded = errors.New("serve: tenant quota exceeded")

// DefaultTenant is the tenant requests without an X-Tenant header are
// accounted under.
const DefaultTenant = "default"

// RouterOptions configures a Router. The zero value of any field selects
// its default.
type RouterOptions struct {
	// DefaultModel is the model served by the unnamed routes
	// (/v1/predict and friends). Default "default".
	DefaultModel string
	// TenantQuota bounds each tenant's in-flight graphs across all
	// models; requests past it fail with ErrQuotaExceeded without
	// touching an engine queue. Zero means unlimited.
	TenantQuota int
}

// tenantState is one tenant's admission account.
type tenantState struct {
	name     string
	inflight atomic.Int64
	rejected atomic.Uint64
}

// Router admits requests onto the registry's resident models. Create one
// with NewRouter; it is safe for concurrent use.
type Router struct {
	reg     *Registry
	opts    RouterOptions
	tenants sync.Map // tenant name → *tenantState
}

// NewRouter builds a router over reg.
func NewRouter(reg *Registry, opts RouterOptions) *Router {
	if opts.DefaultModel == "" {
		opts.DefaultModel = "default"
	}
	rt := &Router{reg: reg, opts: opts}
	// Pre-create the default tenant so the quota metric family is never
	// empty.
	rt.tenant(DefaultTenant)
	return rt
}

// Registry returns the model store the router serves from.
func (rt *Router) Registry() *Registry { return rt.reg }

// DefaultModel returns the model name the unnamed routes serve.
func (rt *Router) DefaultModel() string { return rt.opts.DefaultModel }

// lookup resolves a model name ("" → default model) without stamping the
// model's LRU clock.
func (rt *Router) lookup(model string) (*Engine, error) {
	if model == "" {
		model = rt.opts.DefaultModel
	}
	m, ok := rt.reg.model(model)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrModelNotFound, model)
	}
	return m, nil
}

// target is lookup for a request that serves or feeds the model: it
// stamps the model's LRU clock.
func (rt *Router) target(model string) (*Engine, error) {
	m, err := rt.lookup(model)
	if err == nil {
		m.lastUsed.Store(rt.reg.nanos())
	}
	return m, err
}

// Predictor returns the named model's current snapshot ("" → default),
// for transports that validate payloads against the encoder config.
func (rt *Router) Predictor(model string) (*core.Predictor, error) {
	m, err := rt.lookup(model)
	if err != nil {
		return nil, err
	}
	return m.Predictor(), nil
}

// tenant interns the tenant's admission state ("" → DefaultTenant).
func (rt *Router) tenant(name string) *tenantState {
	if name == "" {
		name = DefaultTenant
	}
	if ts, ok := rt.tenants.Load(name); ok {
		return ts.(*tenantState)
	}
	ts, _ := rt.tenants.LoadOrStore(name, &tenantState{name: name})
	return ts.(*tenantState)
}

// admit reserves n in-flight graphs against the tenant's quota, counting
// a rejection (and touching no queue) when they do not fit.
func (rt *Router) admit(tenant string, n int64) (*tenantState, error) {
	ts := rt.tenant(tenant)
	q := int64(rt.opts.TenantQuota)
	if q <= 0 {
		ts.inflight.Add(n)
		return ts, nil
	}
	for {
		cur := ts.inflight.Load()
		if cur+n > q {
			ts.rejected.Add(1)
			return nil, fmt.Errorf("%w: tenant %q has %d in flight of %d",
				ErrQuotaExceeded, ts.name, cur, q)
		}
		if ts.inflight.CompareAndSwap(cur, cur+n) {
			return ts, nil
		}
	}
}

// Predict routes one graph for tenant to model ("" selects the default
// model) and returns its class.
func (rt *Router) Predict(ctx context.Context, tenant, model string, g *graph.Graph) (int, error) {
	m, err := rt.target(model)
	if err != nil {
		return 0, err
	}
	ts, err := rt.admit(tenant, 1)
	if err != nil {
		return 0, err
	}
	defer ts.inflight.Add(-1)
	return m.Predict(ctx, g)
}

// PredictBatch routes a whole batch to model, returning one class per
// graph in order.
func (rt *Router) PredictBatch(ctx context.Context, tenant, model string, graphs []*graph.Graph) ([]int, error) {
	out := make([]int, len(graphs))
	if err := rt.PredictBatchInto(ctx, tenant, model, graphs, out); err != nil {
		return nil, err
	}
	return out, nil
}

// PredictBatchInto is PredictBatch writing into a caller-provided slice.
// The batch admits atomically against the tenant quota and lands on the
// model's engine, which encodes it in MaxBatch-sized segments.
func (rt *Router) PredictBatchInto(ctx context.Context, tenant, model string, graphs []*graph.Graph, out []int) error {
	m, err := rt.target(model)
	if err != nil {
		return err
	}
	n := int64(len(graphs))
	ts, err := rt.admit(tenant, n)
	if err != nil {
		return err
	}
	defer ts.inflight.Add(-n)
	return m.PredictBatchInto(ctx, graphs, out)
}

// TenantStatus is one tenant's admission account snapshot.
type TenantStatus struct {
	Tenant   string `json:"tenant"`
	InFlight int64  `json:"in_flight"`
	Rejected uint64 `json:"rejected"`
}

// Tenants snapshots every tenant seen so far, sorted by name.
func (rt *Router) Tenants() []TenantStatus {
	var out []TenantStatus
	rt.tenants.Range(func(_, v any) bool {
		ts := v.(*tenantState)
		out = append(out, TenantStatus{
			Tenant:   ts.name,
			InFlight: ts.inflight.Load(),
			Rejected: ts.rejected.Load(),
		})
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}
