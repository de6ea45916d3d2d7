package serve

// The Router is the placement and admission tier between transports and
// the registry's engine replicas. Per request it does three cheap things,
// in an order chosen so that rejected work never touches an engine queue:
//
//  1. Model lookup — lock-free through the registry's COW table
//     (ErrModelNotFound → 404); the empty model name selects the
//     configured default model, which is what keeps the original
//     single-model routes working unchanged.
//  2. Tenant admission — a CAS on the tenant's in-flight graph counter
//     against the quota. A rejection (ErrQuotaExceeded → 429) happens
//     before any replica is chosen, so a noisy tenant cannot consume
//     queue slots that belong to others.
//  3. Replica placement — power-of-two-choices on the per-replica
//     in-flight counters: sample two distinct replicas, route to the
//     less loaded, and if its bounded queue rejects with ErrOverloaded,
//     fall through to the second choice before giving up. With one or
//     two replicas this degenerates to exact least-in-flight.
//
// The hot path allocates nothing: tenant states live in a sync.Map keyed
// by name, counters are atomics, and the random choice uses the runtime's
// per-P generator via math/rand/v2.

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
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

// Router fans requests across the registry's per-model engine replicas.
// Create one with NewRouter; it is safe for concurrent use.
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

// Registry returns the model store the router places onto.
func (rt *Router) Registry() *Registry { return rt.reg }

// DefaultModel returns the model name the unnamed routes serve.
func (rt *Router) DefaultModel() string { return rt.opts.DefaultModel }

// target resolves a request's model name ("" → default model).
func (rt *Router) target(model string) (*regModel, error) {
	if model == "" {
		model = rt.opts.DefaultModel
	}
	m, ok := rt.reg.model(model)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrModelNotFound, model)
	}
	return m, nil
}

// Predictor returns the named model's current snapshot ("" → default),
// for transports that validate payloads against the encoder config.
func (rt *Router) Predictor(model string) (*core.Predictor, error) {
	m, err := rt.target(model)
	if err != nil {
		return nil, err
	}
	return m.pred.Load(), nil
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

// pick samples two distinct replicas and orders them by in-flight load —
// power-of-two-choices. second is nil when only one replica exists.
func pickReplicas(reps []*replica) (first, second *replica) {
	switch len(reps) {
	case 1:
		return reps[0], nil
	case 2:
		first, second = reps[0], reps[1]
	default:
		i := rand.IntN(len(reps))
		j := rand.IntN(len(reps) - 1)
		if j >= i {
			j++
		}
		first, second = reps[i], reps[j]
	}
	if second.inflight.Load() < first.inflight.Load() {
		first, second = second, first
	}
	return first, second
}

// Predict routes one graph for tenant to a replica of model ("" selects
// the default model) and returns its class. Overload on the chosen
// replica falls through to the second choice before surfacing
// ErrOverloaded.
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
	first, second := pickReplicas(m.replicas)
	first.inflight.Add(1)
	class, err := first.eng.Predict(ctx, g)
	first.inflight.Add(-1)
	if err != nil && errors.Is(err, ErrOverloaded) && second != nil {
		second.inflight.Add(1)
		class, err = second.eng.Predict(ctx, g)
		second.inflight.Add(-1)
	}
	if err == nil {
		rt.mirror(m, g, class)
	}
	return class, err
}

// mirror offers one answered request to the model's shadow mirror, if a
// candidate is in its shadow phase. One atomic load when idle; sampling
// and the queue hand-off never block the caller — the primary response is
// already determined.
func (rt *Router) mirror(m *regModel, g *graph.Graph, class int) {
	if sh := m.shadow.Load(); sh != nil {
		sh.offer([]*graph.Graph{g}, []int{class})
	}
}

// PredictBatch routes a whole batch to one replica, returning one class
// per graph in order.
func (rt *Router) PredictBatch(ctx context.Context, tenant, model string, graphs []*graph.Graph) ([]int, error) {
	out := make([]int, len(graphs))
	if err := rt.PredictBatchInto(ctx, tenant, model, graphs, out); err != nil {
		return nil, err
	}
	return out, nil
}

// PredictBatchInto is PredictBatch writing into a caller-provided slice.
// The batch admits atomically against the tenant quota and lands on one
// replica, whose workers encode it in MaxBatch-sized segments.
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
	first, second := pickReplicas(m.replicas)
	first.inflight.Add(n)
	err = first.eng.PredictBatchInto(ctx, graphs, out)
	first.inflight.Add(-n)
	if err != nil && errors.Is(err, ErrOverloaded) && second != nil {
		second.inflight.Add(n)
		err = second.eng.PredictBatchInto(ctx, graphs, out)
		second.inflight.Add(-n)
	}
	if err == nil {
		if sh := m.shadow.Load(); sh != nil {
			sh.offer(graphs, out)
		}
	}
	return err
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
