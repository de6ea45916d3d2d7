package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRouterRoutesByName serves two models through one router and checks
// each name answers under its own model, the empty name selects the
// default, and unknown names surface ErrModelNotFound.
func TestRouterRoutesByName(t *testing.T) {
	predA, ds := testModel(t, 2048, 1)
	predB, _ := testModel(t, 1024, 99)
	wantA := predA.PredictAll(ds.Graphs)
	wantB := predB.PredictAll(ds.Graphs)

	reg := NewRegistry(RegistryOptions{Engine: Options{Workers: 2, MaxBatch: 8}})
	defer reg.Close()
	if err := reg.Load("alpha", predA); err != nil {
		t.Fatal(err)
	}
	if err := reg.Load("beta", predB); err != nil {
		t.Fatal(err)
	}
	rt := NewRouter(reg, RouterOptions{DefaultModel: "alpha"})
	ctx := context.Background()

	gotA, err := rt.PredictBatch(ctx, "", "alpha", ds.Graphs)
	if err != nil {
		t.Fatal(err)
	}
	gotB, err := rt.PredictBatch(ctx, "", "beta", ds.Graphs)
	if err != nil {
		t.Fatal(err)
	}
	gotDefault, err := rt.PredictBatch(ctx, "", "", ds.Graphs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ds.Graphs {
		if gotA[i] != wantA[i] {
			t.Fatalf("alpha graph %d: class %d, want %d", i, gotA[i], wantA[i])
		}
		if gotB[i] != wantB[i] {
			t.Fatalf("beta graph %d: class %d, want %d", i, gotB[i], wantB[i])
		}
		if gotDefault[i] != wantA[i] {
			t.Fatalf("default graph %d: class %d, want alpha's %d", i, gotDefault[i], wantA[i])
		}
	}
	if c, err := rt.Predict(ctx, "", "beta", ds.Graphs[0]); err != nil || c != wantB[0] {
		t.Fatalf("single predict on beta: class %d err %v, want %d", c, err, wantB[0])
	}

	if _, err := rt.Predict(ctx, "", "gamma", ds.Graphs[0]); !errors.Is(err, ErrModelNotFound) {
		t.Fatalf("unknown model: %v, want ErrModelNotFound", err)
	}
	if _, err := rt.Predictor("gamma"); !errors.Is(err, ErrModelNotFound) {
		t.Fatalf("Predictor of unknown model: %v, want ErrModelNotFound", err)
	}
	if p, err := rt.Predictor(""); err != nil || p != predA {
		t.Fatalf("default predictor: %v, %v", p, err)
	}
}

// TestRouterQuota checks tenant admission: an over-quota batch is
// rejected before any engine sees it, the rejection is accounted to the
// tenant, and other tenants are untouched.
func TestRouterQuota(t *testing.T) {
	pred, ds := testModel(t, 1024, 1)
	reg := NewRegistry(RegistryOptions{Engine: Options{Workers: 1}})
	defer reg.Close()
	if err := reg.Load("default", pred); err != nil {
		t.Fatal(err)
	}
	rt := NewRouter(reg, RouterOptions{TenantQuota: 4})
	ctx := context.Background()

	if _, err := rt.PredictBatch(ctx, "noisy", "", ds.Graphs[:5]); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("over-quota batch: %v, want ErrQuotaExceeded", err)
	}
	m, _ := reg.model("default")
	if got := m.eng.Metrics().AcceptedGraphs; got != 0 {
		t.Fatalf("quota rejection reached the engine: %d graphs accepted", got)
	}

	// At quota is fine; sequential calls release their reservation.
	for i := 0; i < 3; i++ {
		if _, err := rt.PredictBatch(ctx, "noisy", "", ds.Graphs[:4]); err != nil {
			t.Fatalf("at-quota batch %d: %v", i, err)
		}
	}
	// Another tenant has its own account.
	if _, err := rt.PredictBatch(ctx, "quiet", "", ds.Graphs[:4]); err != nil {
		t.Fatalf("other tenant: %v", err)
	}

	ten := rt.Tenants()
	byName := map[string]TenantStatus{}
	for _, ts := range ten {
		byName[ts.Tenant] = ts
	}
	if byName["noisy"].Rejected != 1 || byName["noisy"].InFlight != 0 {
		t.Fatalf("noisy account %+v", byName["noisy"])
	}
	if byName["quiet"].Rejected != 0 {
		t.Fatalf("quiet account %+v", byName["quiet"])
	}
	if _, ok := byName[DefaultTenant]; !ok {
		t.Fatal("default tenant not pre-created")
	}
}

// TestRouterSoakRollingSwap is the router acceptance soak, run under
// -race in CI: a model takes sustained mixed single/batch traffic from a
// client fleet (including an always-over-quota tenant and an over-queue
// batch size) while registry swaps flip it between two models of
// different dimensions. At quiesce it asserts the hard invariants the
// architecture promises:
//
//   - zero failed in-flight requests across every swap;
//   - exact conservation: client-observed answered graphs ==
//     accepted == processed on the model's engine;
//   - quota rejections never touched an engine queue: engine-side
//     admissions account exactly for the answered graphs, and the quota
//     tenant's rejection count matches its client-side observations.
func TestRouterSoakRollingSwap(t *testing.T) {
	predA, ds := testModel(t, 1024, 1)
	predB, _ := testModel(t, 512, 99) // dimension change: swaps re-bind scratch
	reg := NewRegistry(RegistryOptions{
		Engine: Options{
			Workers:   2,
			MaxBatch:  8,
			QueueSize: 64, // small enough for the 65-graph client to overrun
		},
	})
	if err := reg.Load("default", predA); err != nil {
		t.Fatal(err)
	}
	// Quota 100: wide enough that the 65-graph batch passes admission and
	// exercises queue overload, tight enough for a 128-graph batch to shed.
	rt := NewRouter(reg, RouterOptions{TenantQuota: 100})

	duration := 800 * time.Millisecond
	if testing.Short() {
		duration = 150 * time.Millisecond
	}
	stop := make(chan struct{})
	go func() {
		time.Sleep(duration)
		close(stop)
	}()

	// Swapper: flip between the two models through the registry.
	var swaps atomic.Uint64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			next := predA
			if i%2 == 1 {
				next = predB
			}
			if err := reg.Swap("default", next); err != nil {
				t.Errorf("registry swap: %v", err)
				return
			}
			swaps.Add(1)
			time.Sleep(100 * time.Microsecond)
		}
	}()

	var graphsOK, overloads, failures atomic.Uint64
	var quotaRejections atomic.Uint64
	ctx := context.Background()

	// Pool long enough for any batch window.
	pool := ds.Graphs
	for len(pool) < 128+len(ds.Graphs) {
		pool = append(pool, ds.Graphs...)
	}

	client := func(tenant string, batch int, wantQuotaReject bool) {
		defer wg.Done()
		out := make([]int, batch)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			lo := i % len(ds.Graphs)
			var err error
			if batch == 1 {
				_, err = rt.Predict(ctx, tenant, "", pool[lo])
			} else {
				err = rt.PredictBatchInto(ctx, tenant, "", pool[lo:lo+batch], out)
			}
			switch {
			case err == nil:
				if wantQuotaReject {
					t.Error("over-quota batch was admitted")
					return
				}
				graphsOK.Add(uint64(batch))
			case errors.Is(err, ErrQuotaExceeded):
				if !wantQuotaReject {
					t.Errorf("tenant %q rejected by quota unexpectedly", tenant)
					return
				}
				quotaRejections.Add(1)
			case errors.Is(err, ErrOverloaded):
				overloads.Add(1)
			default:
				failures.Add(1)
				t.Errorf("request failed in flight: %v", err)
				return
			}
		}
	}

	// Fleet: singles, mid batches, a segmented batch, one batch that
	// overruns the engine queue (65 > QueueSize), and a tenant whose batch
	// always exceeds the quota (128 > 100) so every one of its calls must
	// shed at admission.
	for _, c := range []struct {
		tenant string
		batch  int
		reject bool
	}{
		{"t1", 1, false}, {"t1", 1, false}, {"t2", 3, false}, {"t2", 8, false},
		{"t3", 17, false}, {"t3", 65, false}, {"greedy", 128, true},
	} {
		wg.Add(1)
		go client(c.tenant, c.batch, c.reject)
	}
	wg.Wait()
	m, ok := reg.model("default") // grab the entry before Close empties the table
	if !ok {
		t.Fatal("model vanished during soak")
	}
	reg.Close() // drains every admitted request

	if failures.Load() != 0 {
		t.Fatalf("%d requests failed in flight across %d swaps", failures.Load(), swaps.Load())
	}
	if swaps.Load() == 0 {
		t.Fatal("no swaps happened during the soak")
	}
	if quotaRejections.Load() == 0 {
		t.Fatal("the over-quota tenant was never rejected")
	}

	em := m.eng.Metrics()
	if em.Reloads != swaps.Load() {
		t.Errorf("engine saw %d reloads, want %d (a registry swap skipped it)", em.Reloads, swaps.Load())
	}
	if em.AcceptedGraphs != em.Processed || em.InFlight != 0 {
		t.Fatalf("engine did not quiesce clean: accepted %d, processed %d, inflight %d",
			em.AcceptedGraphs, em.Processed, em.InFlight)
	}
	if em.AcceptedGraphs != graphsOK.Load() {
		t.Fatalf("engine accepted %d graphs but clients saw %d answered "+
			"(quota rejections leaked into a queue, or answers were lost)",
			em.AcceptedGraphs, graphsOK.Load())
	}
	for _, ts := range rt.Tenants() {
		if ts.InFlight != 0 {
			t.Errorf("tenant %q in-flight %d at quiesce", ts.Tenant, ts.InFlight)
		}
		if ts.Tenant == "greedy" && ts.Rejected != quotaRejections.Load() {
			t.Errorf("greedy tenant rejected %d, clients counted %d", ts.Rejected, quotaRejections.Load())
		}
	}
	t.Logf("soak: %d graphs answered, %d overload shed, %d quota shed, %d swaps",
		graphsOK.Load(), overloads.Load(), quotaRejections.Load(), swaps.Load())
}
