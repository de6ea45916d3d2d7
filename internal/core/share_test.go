package core

import (
	"bytes"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"weak"

	"graphhd/internal/centrality"
	"graphhd/internal/graph"
	"graphhd/internal/hdc"
)

// freshSeeds numbers the seeds freshConfig hands out.
var freshSeeds atomic.Uint64

// freshConfig returns cfg with a seed that no other call returns and no
// test otherwise uses. Equal configs share one encoder (NewEncoder), so a
// test that builds a second, foreign encoder, or measures an encoder's own
// basis, needs a config of its own.
func freshConfig(cfg Config) Config {
	cfg.Seed = 0xf7e5_0000_0000 + freshSeeds.Add(1)
	return cfg
}

// awaitCollected runs collections until the encoder behind wp has been
// collected and its cleanup has dropped cfg's entry, and fails the test
// after a bounded number of rounds. A pooled scratch keeps its encoder
// reachable until the pool has been cleared by two collections.
func awaitCollected(t *testing.T, cfg Config, wp weak.Pointer[Encoder]) {
	t.Helper()
	for range 500 {
		runtime.GC()
		encodersMu.Lock()
		_, held := encoders[cfg]
		encodersMu.Unlock()
		if wp.Value() == nil && !held {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("the encoder of seed %#x was not collected and dropped after 500 collections", cfg.Seed)
}

// TestEqualConfigsShareOneEncoder: every way of getting an encoder for
// one Config — NewEncoder, MustNewEncoder, Train, Snapshot, ReadModel and
// ReadPredictor — gives the same one, and a loaded predictor encodes on
// the basis slab the training grew instead of growing its own.
func TestEqualConfigsShareOneEncoder(t *testing.T) {
	cfg := freshConfig(testConfig())
	gs, ys := twoClassDataset(10, 17)
	enc, err := NewEncoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Train(cfg, gs, ys)
	if err != nil {
		t.Fatal(err)
	}
	slab := enc.basis.Load()
	var full, packed bytes.Buffer
	if _, err := m.WriteTo(&full); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Snapshot().WriteTo(&packed); err != nil {
		t.Fatal(err)
	}
	rm, err := ReadModel(&full)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := ReadPredictor(&packed)
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string]*Encoder{
		"MustNewEncoder": MustNewEncoder(cfg),
		"Train":          m.Encoder(),
		"Snapshot":       m.Snapshot().Encoder(),
		"ReadModel":      rm.Encoder(),
		"ReadPredictor":  rp.Encoder(),
	} {
		if got != enc {
			t.Errorf("%s gave encoder %p, NewEncoder %p", name, got, enc)
		}
	}
	rp.PredictAll(gs)
	if enc.basis.Load() != slab {
		t.Fatal("the loaded predictor regrew the basis slab its training grew")
	}
}

// TestEncoderKeyCoversEveryConfigField: changing any one field of a
// Config gives a different encoder, configured as asked.
func TestEncoderKeyCoversEveryConfigField(t *testing.T) {
	base := freshConfig(testConfig())
	variants := []func(*Config){
		func(c *Config) { c.Dimension++ },
		func(c *Config) { c.PageRankIterations++ },
		func(c *Config) { c.PageRankDamping = 0.5 },
		func(c *Config) { c.Seed = ^c.Seed },
		func(c *Config) { c.BipolarClassVectors = true },
		func(c *Config) { c.UseVertexLabels = true },
		func(c *Config) { c.Centrality = centrality.Degree },
	}
	if n := reflect.TypeFor[Config]().NumField(); len(variants) != n {
		t.Fatalf("%d variants for the %d fields of Config", len(variants), n)
	}
	// seen holds every encoder, so no address is reused while it runs.
	seen := map[*Encoder]int{MustNewEncoder(base): -1}
	for i, vary := range variants {
		cfg := base
		vary(&cfg)
		if cfg == base {
			t.Fatalf("variant %d leaves the config unchanged", i)
		}
		e := MustNewEncoder(cfg)
		if j, dup := seen[e]; dup {
			t.Fatalf("variant %d shares an encoder with variant %d (-1 is the base)", i, j)
		}
		seen[e] = i
		if e.Config() != cfg {
			t.Fatalf("variant %d: encoder configured %+v, want %+v", i, e.Config(), cfg)
		}
	}
}

// encodeOnce builds cfg's encoder, encodes g through its pool, and
// returns only a weak pointer to it and the encoding.
//
//go:noinline
func encodeOnce(cfg Config, g *graph.Graph) (weak.Pointer[Encoder], *hdc.Binary) {
	e := MustNewEncoder(cfg)
	return weak.Make(e), e.EncodeGraphPacked(g)
}

// TestUnusedEncoderIsCollected: an encoder nothing references is
// collected and its entry dropped; NewEncoder then builds a new one,
// which encodes as the old one did.
func TestUnusedEncoderIsCollected(t *testing.T) {
	cfg := freshConfig(testConfig())
	g := graph.ErdosRenyi(30, 0.2, hdc.NewRNG(5))
	wp, want := encodeOnce(cfg, g)
	awaitCollected(t, cfg, wp)
	e := MustNewEncoder(cfg)
	if weak.Make(e) == wp {
		t.Fatal("NewEncoder returned the collected encoder")
	}
	if !e.EncodeGraphPacked(g).Equal(want) {
		t.Fatal("the rebuilt encoder encodes differently")
	}
	// A cleanup that runs after the rebuild leaves the new entry alone.
	dropEncoder(encoderEntry{cfg, wp})
	if MustNewEncoder(cfg) != e {
		t.Fatal("the collected encoder's cleanup dropped its successor's entry")
	}
}

// trainBytes trains a model and returns its GRAPHHD1 bytes and only a
// weak pointer to its encoder.
//
//go:noinline
func trainBytes(t *testing.T, cfg Config, gs []*graph.Graph, ys []int) ([]byte, weak.Pointer[Encoder]) {
	t.Helper()
	m, err := Train(cfg, gs, ys)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), weak.Make(m.Encoder())
}

// TestConcurrentNewEncoderAndTrainShareOne: concurrent NewEncoder and
// Train calls on one Config, with no encoder for it live, return one
// encoder, and every model's GRAPHHD1 bytes equal a sequential Train's on
// an encoder built before it.
func TestConcurrentNewEncoderAndTrainShareOne(t *testing.T) {
	cfg := freshConfig(testConfig())
	gs, ys := twoClassDataset(12, 19)
	want, wp := trainBytes(t, cfg, gs, ys)
	awaitCollected(t, cfg, wp)

	const callers = 8
	encs := make([]*Encoder, callers)
	models := make([]*Model, callers)
	errs := make([]error, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if i%2 == 0 {
				encs[i], errs[i] = NewEncoder(cfg)
				return
			}
			if models[i], errs[i] = Train(cfg, gs, ys); errs[i] == nil {
				encs[i] = models[i].Encoder()
			}
		}()
	}
	close(start)
	wg.Wait()
	for i := range callers {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if encs[i] != encs[0] {
			t.Fatalf("caller %d got encoder %p, caller 0 %p", i, encs[i], encs[0])
		}
	}
	for i, m := range models {
		if m == nil {
			continue
		}
		var buf bytes.Buffer
		if _, err := m.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("caller %d's model differs from the sequential Train's", i)
		}
	}
}
