package serve

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"testing"
	"time"
	"weak"

	"graphhd/internal/core"
	"graphhd/internal/dataset"
	"graphhd/internal/graph"
)

// regOptions is the small-engine registry shape the unit tests use.
func regOptions() RegistryOptions {
	return RegistryOptions{Engine: Options{Workers: 1}}
}

// TestRegistryLoadEvictList covers the table basics: load, lookup,
// byte accounting, listing via Status, evict, and the error surface.
func TestRegistryLoadEvictList(t *testing.T) {
	predA, _ := testModel(t, 1024, 1) // 2 classes → 256 packed bytes
	predB, _ := testModel(t, 2048, 2) // 512 packed bytes
	reg := NewRegistry(regOptions())
	defer reg.Close()

	if err := reg.Load("alpha", predA); err != nil {
		t.Fatal(err)
	}
	if err := reg.Load("beta", predB); err != nil {
		t.Fatal(err)
	}
	if reg.Len() != 2 {
		t.Fatalf("Len = %d, want 2", reg.Len())
	}
	if want := int64(predA.MemoryBytes() + predB.MemoryBytes()); reg.Bytes() != want {
		t.Fatalf("Bytes = %d, want %d", reg.Bytes(), want)
	}
	if _, ok := reg.model("alpha"); !ok {
		t.Fatal("alpha not resident after Load")
	}
	if _, ok := reg.model("gamma"); ok {
		t.Fatal("lookup of unknown model succeeded")
	}

	st := reg.Status()
	if len(st.Models) != 2 || st.Models[0].Name != "alpha" || st.Models[1].Name != "beta" {
		t.Fatalf("Status models %+v, want [alpha beta]", st.Models)
	}
	if st.Models[0].Version != 1 || st.Models[0].Dimension != 1024 {
		t.Fatalf("alpha status %+v", st.Models[0])
	}
	if a := st.Models[0]; a.Accepted != 0 || a.Processed != 0 || a.InFlight != 0 || a.Reloads != 0 {
		t.Fatalf("alpha engine counters before traffic: %+v", a)
	}

	if err := reg.Evict("alpha"); err != nil {
		t.Fatal(err)
	}
	if _, ok := reg.model("alpha"); ok {
		t.Fatal("alpha resident after Evict")
	}
	if want := int64(predB.MemoryBytes()); reg.Bytes() != want {
		t.Fatalf("Bytes after evict = %d, want %d", reg.Bytes(), want)
	}
	if err := reg.Evict("alpha"); !errors.Is(err, ErrModelNotFound) {
		t.Fatalf("double evict: %v, want ErrModelNotFound", err)
	}
	// Explicit evicts are not budget evictions.
	if reg.Evictions() != 0 {
		t.Fatalf("Evictions = %d after explicit Evict, want 0", reg.Evictions())
	}

	// Name and argument validation.
	if err := reg.Load("", predA); err == nil {
		t.Fatal("empty model name accepted")
	}
	if err := reg.Load("has space", predA); err == nil {
		t.Fatal("model name with space accepted")
	}
	if err := reg.Load("ok", nil); err == nil {
		t.Fatal("nil predictor accepted")
	}
	if err := reg.Swap("gamma", predA); !errors.Is(err, ErrModelNotFound) {
		t.Fatalf("swap of unknown model: %v, want ErrModelNotFound", err)
	}

	// A closed registry rejects mutations; Close is idempotent.
	reg.Close()
	reg.Close()
	if err := reg.Load("late", predA); !errors.Is(err, ErrRegistryClosed) {
		t.Fatalf("load after close: %v, want ErrRegistryClosed", err)
	}
	if err := reg.Swap("beta", predA); !errors.Is(err, ErrRegistryClosed) {
		t.Fatalf("swap after close: %v, want ErrRegistryClosed", err)
	}
	if reg.Len() != 0 {
		t.Fatalf("Len after close = %d, want 0", reg.Len())
	}
}

// TestRegistryErrorSurface covers the remaining argument and lifecycle
// errors: Options round-trip, nil/oversized swaps, and mutations against
// a closed registry.
func TestRegistryErrorSurface(t *testing.T) {
	small, _ := testModel(t, 1024, 1) // 256 bytes
	big, _ := testModel(t, 2048, 2)   // 512 bytes
	opts := regOptions()
	opts.MaxResidentBytes = 300
	reg := NewRegistry(opts)
	defer reg.Close()

	if got := reg.Options(); got.MaxResidentBytes != 300 || got.Engine.Workers != 1 {
		t.Fatalf("Options round-trip: %+v", got)
	}
	if err := reg.Load("m", small); err != nil {
		t.Fatal(err)
	}
	if err := reg.Swap("m", nil); err == nil {
		t.Fatal("swap to nil predictor accepted")
	}
	if err := reg.Swap("m", big); !errors.Is(err, ErrModelTooLarge) {
		t.Fatalf("oversized swap: %v, want ErrModelTooLarge", err)
	}
	if v := reg.Status().Models[0].Version; v != 1 {
		t.Fatal("refused swap bumped the version")
	}

	reg.Close()
	if err := reg.Evict("m"); !errors.Is(err, ErrRegistryClosed) {
		t.Fatalf("evict after close: %v, want ErrRegistryClosed", err)
	}
}

// TestRegistryLRUEviction proves the memory bound: loading past
// MaxResidentBytes evicts the least-recently-used model (a lookup
// refreshes recency), the byte and eviction counters account for it, and
// a model that alone exceeds the bound is refused outright.
func TestRegistryLRUEviction(t *testing.T) {
	predA, _ := testModel(t, 1024, 1) // 256 bytes each
	predB, _ := testModel(t, 1024, 2)
	predC, _ := testModel(t, 1024, 3)
	opts := regOptions()
	opts.MaxResidentBytes = 600
	reg := NewRegistry(opts)
	defer reg.Close()

	if err := reg.Load("a", predA); err != nil {
		t.Fatal(err)
	}
	if err := reg.Load("b", predB); err != nil {
		t.Fatal(err)
	}
	// Touch "a" so "b" is the LRU when "c" needs room.
	if _, ok := reg.model("a"); !ok {
		t.Fatal("a not resident")
	}
	if err := reg.Load("c", predC); err != nil {
		t.Fatal(err)
	}
	if _, ok := reg.model("b"); ok {
		t.Fatal("LRU model b survived an over-budget load")
	}
	if _, ok := reg.model("a"); !ok {
		t.Fatal("recently used model a was evicted")
	}
	if _, ok := reg.model("c"); !ok {
		t.Fatal("newly loaded model c not resident")
	}
	if reg.Evictions() != 1 {
		t.Fatalf("Evictions = %d, want 1", reg.Evictions())
	}
	if want := int64(2 * predA.MemoryBytes()); reg.Bytes() != want {
		t.Fatalf("Bytes = %d, want %d", reg.Bytes(), want)
	}

	// One model bigger than the whole budget can never fit.
	big, _ := testModel(t, 4096, 4) // 1024 bytes > 600
	if err := reg.Load("big", big); !errors.Is(err, ErrModelTooLarge) {
		t.Fatalf("oversized load: %v, want ErrModelTooLarge", err)
	}
	if reg.Len() != 2 {
		t.Fatalf("refused load changed residency: %d models", reg.Len())
	}
}

// TestRegistryRollingSwap walks a model through swaps and checks the
// version, the engine's reload counter and status row, and that the
// engine serves the new predictor afterwards — including a dimension
// change, whose segments encode through another encoder.
func TestRegistryRollingSwap(t *testing.T) {
	predA, ds := testModel(t, 1024, 1)
	predB, _ := testModel(t, 512, 2)
	reg := NewRegistry(regOptions())
	defer reg.Close()

	if err := reg.Load("m", predA); err != nil {
		t.Fatal(err)
	}
	m, _ := reg.model("m")
	if err := reg.Swap("m", predB); err != nil {
		t.Fatal(err)
	}
	if got := reg.Status().Models[0].Version; got != 2 {
		t.Fatalf("version = %d after swap, want 2", got)
	}
	if m.eng.Predictor() != predB {
		t.Fatal("engine still serves the old predictor")
	}
	if got := m.eng.Reloads(); got != 1 {
		t.Fatalf("engine reloads = %d, want 1", got)
	}
	want := predB.PredictAll(ds.Graphs[:8])
	got, err := m.eng.PredictBatch(context.Background(), ds.Graphs[:8])
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("graph %d after swap: class %d, want the new model's %d", i, got[i], want[i])
		}
	}
	if ms := reg.Status().Models[0]; ms.Reloads != 1 || ms.Accepted != 8 || ms.Processed != 8 || ms.InFlight != 0 {
		t.Fatalf("status row after swap and traffic: %+v", ms)
	}
	// Byte accounting follows the swap (512-bit model is half the size).
	if want := int64(predB.MemoryBytes()); reg.Bytes() != want {
		t.Fatalf("Bytes after swap = %d, want %d", reg.Bytes(), want)
	}

	// Loading under an existing name is the same swap.
	if err := reg.Load("m", predA); err != nil {
		t.Fatal(err)
	}
	if got := reg.Status().Models[0].Version; got != 3 {
		t.Fatalf("version = %d after replacing load, want 3", got)
	}
	if m2, _ := reg.model("m"); m2 != m {
		t.Fatal("replacing load rebuilt the model entry instead of swapping")
	}
}

// TestRegistryLoadFileAndReload covers the artifact path: LoadFile
// remembers the path, Reload re-reads it and bumps the version, and
// ReloadAll skips in-memory models while reporting the reload count.
func TestRegistryLoadFileAndReload(t *testing.T) {
	predA, _ := testModel(t, 1024, 1)
	predB, _ := testModel(t, 2048, 2)
	path := filepath.Join(t.TempDir(), "m.ghdp")
	if err := predA.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry(regOptions())
	defer reg.Close()
	if err := reg.LoadFile("disk", path); err != nil {
		t.Fatal(err)
	}
	if err := reg.Load("mem", predB); err != nil {
		t.Fatal(err)
	}
	if err := reg.LoadFile("disk", filepath.Join(t.TempDir(), "missing.ghdp")); err == nil {
		t.Fatal("LoadFile of missing artifact succeeded")
	}

	// Write a new artifact and reload: version bumps, dimension follows.
	if err := predB.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	n, err := reg.ReloadAll()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("ReloadAll reloaded %d models, want 1 (mem has no path)", n)
	}
	st := reg.Status()
	for _, ms := range st.Models {
		if ms.Name == "disk" {
			if ms.Version != 2 || ms.Dimension != 2048 {
				t.Fatalf("disk after reload: %+v", ms)
			}
		}
	}
	if err := reg.Reload("mem"); err == nil {
		t.Fatal("Reload of in-memory model succeeded")
	}
	if err := reg.Reload("nope"); !errors.Is(err, ErrModelNotFound) {
		t.Fatalf("Reload of unknown model: %v, want ErrModelNotFound", err)
	}
}

// heapArtifact trains a packed model on the named dataset at d = 10,000
// under seed and writes it to path. It returns the dataset's largest
// graph and only a weak pointer to the model's encoder.
//
//go:noinline
func heapArtifact(t *testing.T, name string, count int, seed uint64, path string) (*graph.Graph, weak.Pointer[core.Encoder]) {
	t.Helper()
	ds := dataset.MustGenerate(name, dataset.Options{Seed: 1, GraphCount: count})
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	m, err := core.Train(cfg, ds.Graphs, ds.Labels)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Snapshot().SaveFile(path); err != nil {
		t.Fatal(err)
	}
	largest := ds.Graphs[0]
	for _, g := range ds.Graphs {
		if g.NumVertices() > largest.NumVertices() {
			largest = g
		}
	}
	return largest, weak.Make(m.Encoder())
}

// TestRegistryHeapPerModel measures what a resident model costs in live
// heap: 40 models of one Config loaded from one artifact with LoadFile,
// each served one routed predict on the dataset's largest graph. The
// models share one encoder, so its basis slab, grown to that graph, and
// its pool of scratches are paid once, not per model, as is the
// registry's one flight recorder. Each model holds its engine alone.
func TestRegistryHeapPerModel(t *testing.T) {
	const models = 40
	for _, tc := range []struct {
		name   string
		count  int
		seed   uint64 // a Config no other test uses, so its encoder starts unbuilt
		maxKiB float64
	}{
		{"MUTAG", 188, 0x4d55_5441, 12},
		{"DD", 40, 0x4444, 30},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "m.ghdp")
			g, wp := heapArtifact(t, tc.name, tc.count, tc.seed, path)
			// The training's encoder must be gone, or its basis would
			// not be charged to the loaded models.
			for i := 0; wp.Value() != nil; i++ {
				if i == 500 {
					t.Fatal("the training's encoder was not collected after 500 collections")
				}
				runtime.GC()
				time.Sleep(time.Millisecond)
			}
			before := liveHeapBytes()
			reg := NewRegistry(RegistryOptions{Engine: Options{Workers: 2}})
			defer reg.Close()
			rt := NewRouter(reg, RouterOptions{})
			ctx := context.Background()
			for i := range models {
				name := fmt.Sprintf("m%02d", i)
				if err := reg.LoadFile(name, path); err != nil {
					t.Fatal(err)
				}
				if _, err := rt.Predict(ctx, "", name, g); err != nil {
					t.Fatal(err)
				}
			}
			perModel := float64(liveHeapBytes()-before) / models / 1024
			runtime.KeepAlive(rt)
			t.Logf("%s: %.1f KiB of live heap per model over %d models (largest graph %d vertices)",
				tc.name, perModel, models, g.NumVertices())
			if perModel > tc.maxKiB {
				t.Fatalf("%s: %.1f KiB of live heap per model, want at most %.0f", tc.name, perModel, tc.maxKiB)
			}
		})
	}
}

// liveHeapBytes returns the bytes of live heap objects after a collection.
func liveHeapBytes() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
