package core

import (
	"bytes"
	"strings"
	"testing"

	"graphhd/internal/dataset"
	"graphhd/internal/graph"
	"graphhd/internal/hdc"
)

// forEachTier runs fn under every kernel tier this CPU supports (the
// core-level twin of the hdc package's equivalence-matrix helper),
// restoring the previously active tier afterwards.
func forEachTier(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	prev := hdc.ActiveKernel()
	defer func() {
		if err := hdc.SetKernel(prev); err != nil {
			t.Fatalf("restoring kernel tier %s: %v", prev, err)
		}
	}()
	for _, tier := range hdc.SupportedKernels() {
		if err := hdc.SetKernel(tier); err != nil {
			t.Fatalf("SetKernel(%s): %v", tier, err)
		}
		t.Run(tier.String(), fn)
	}
}

func TestCascadeValidate(t *testing.T) {
	const d = 2048
	cases := []struct {
		c    Cascade
		want string // substring of the error, empty for valid
	}{
		{Cascade{DPrefix: 1024, Margin: 0}, ""},
		{Cascade{DPrefix: 1000, Margin: 37}, ""}, // non-multiple-of-64 widths are fine (tail-masked)
		{Cascade{DPrefix: MinCascadePrefix, Margin: 0}, ""},
		{Cascade{DPrefix: 63, Margin: 0}, "below the minimum"},
		{Cascade{DPrefix: 0, Margin: 0}, "below the minimum"},
		{Cascade{DPrefix: d, Margin: 0}, "smaller than the model dimension"},
		{Cascade{DPrefix: d + 64, Margin: 0}, "smaller than the model dimension"},
		{Cascade{DPrefix: 1024, Margin: -1}, "negative cascade margin"},
	}
	for _, tc := range cases {
		err := tc.c.Validate(d)
		if tc.want == "" {
			if err != nil {
				t.Errorf("Validate(%+v): unexpected error %v", tc.c, err)
			}
		} else if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Validate(%+v) = %v, want error containing %q", tc.c, err, tc.want)
		}
	}
}

// TestPrefixEncodeMatchesSlicedAllDatasets pins the tentpole acceptance
// criterion at the encoder level: on every synthetic Table-I dataset,
// with labeled, edgeless and empty graphs mixed in, and under every
// supported kernel tier, the prefix-width encode — counter narrowed with
// SetDim, reading only the leading words of the full basis — is
// bit-identical to slicing the full-width encoding, which by the
// componentwise majority/bind identity is exactly what a freshly built
// small-d model sharing the basis prefix would produce.
func TestPrefixEncodeMatchesSlicedAllDatasets(t *testing.T) {
	prefixes := []int{64, 321, 1000, 1024} // one word, ragged, non-multiple-of-64, half
	for _, name := range dataset.Names() {
		t.Run(name, func(t *testing.T) {
			count := 12
			if name == "DD" {
				count = 4
			}
			ds, err := dataset.Generate(name, dataset.Options{Seed: 23, GraphCount: count})
			if err != nil {
				t.Fatal(err)
			}
			graphs := withOddShapes(t, ds.Graphs)
			cfg := testConfig()
			cfg.UseVertexLabels = true
			enc := MustNewEncoder(cfg)
			forEachTier(t, func(t *testing.T) {
				s := enc.NewScratch()
				for gi, g := range graphs {
					full := enc.encodeGraphSlow(g).PackBinary()
					for _, dp := range prefixes {
						want := full.PrefixCopy(dp)
						if got := s.EncodeGraphPackedPrefix(g, dp); !got.Equal(want) {
							t.Fatalf("graph %d: prefix-%d encode differs from the sliced reference encode", gi, dp)
						}
					}
					// Interleaving widths must not corrupt the full-width path.
					if !s.EncodeGraphPacked(g).Equal(full) {
						t.Fatalf("graph %d: full-width encode corrupted after prefix encodes", gi)
					}
				}
			})
		})
	}
}

// cascadeReference decides every graph the way the cascade must, from
// parts independent of the scratch pipeline: the int8 reference
// encodings refs, their PrefixCopy queried with ClassifyTop2 against the
// predictor's prefix memory, and the full-width packed query. Without a
// cascade every graph is decided at full width, never escalated.
func cascadeReference(t *testing.T, p *Predictor, graphs []*graph.Graph, refs []*hdc.Binary) (classes []int, escalated []bool) {
	t.Helper()
	c, on := p.Cascade()
	var ppm *hdc.PackedMemory
	if on {
		var err error
		if ppm, err = p.PrefixSnapshot(c.DPrefix); err != nil {
			t.Fatal(err)
		}
	}
	classes, escalated = make([]int, len(graphs)), make([]bool, len(graphs))
	for i := range graphs {
		classes[i] = p.PredictEncoded(refs[i])
		if !on {
			continue
		}
		best, _, bestH, secondH := ppm.ClassifyTop2(refs[i].PrefixCopy(c.DPrefix))
		if secondH-bestH > c.Margin {
			classes[i] = best
		} else {
			escalated[i] = true
		}
	}
	return classes, escalated
}

// referenceEncodings returns encodeGraphSlow(g).PackBinary() per graph.
func referenceEncodings(enc *Encoder, graphs []*graph.Graph) []*hdc.Binary {
	refs := make([]*hdc.Binary, len(graphs))
	for i, g := range graphs {
		refs[i] = enc.encodeGraphSlow(g).PackBinary()
	}
	return refs
}

func countTrue(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}

// TestCascadeBatchMatchesSingleAllDatasets checks the batch and
// per-graph cascade primitives against cascadeReference on every
// dataset: identical classes, identical stage-1/escalation accounting,
// and a clean restore of the scratch's full-width invariant afterwards.
func TestCascadeBatchMatchesSingleAllDatasets(t *testing.T) {
	for _, name := range dataset.Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			count := 24
			if name == "DD" {
				count = 6
			}
			ds, err := dataset.Generate(name, dataset.Options{Seed: 29, GraphCount: count})
			if err != nil {
				t.Fatal(err)
			}
			cfg := testConfig()
			m, err := Train(cfg, ds.Graphs, ds.Labels)
			if err != nil {
				t.Fatal(err)
			}
			pred := m.Snapshot()
			refs := referenceEncodings(pred.Encoder(), ds.Graphs)
			full, _ := cascadeReference(t, pred, ds.Graphs, refs)
			// A mid-band margin so both stage-1 exits and escalations occur.
			if err := pred.SetCascade(Cascade{DPrefix: 256, Margin: 8}); err != nil {
				t.Fatal(err)
			}
			want, wantEsc := cascadeReference(t, pred, ds.Graphs, refs)
			es := pred.Encoder().NewScratch()
			bs := pred.Encoder().NewScratch()
			for _, size := range []int{1, 7, 24} {
				for lo := 0; lo < len(ds.Graphs); lo += size {
					hi := min(lo+size, len(ds.Graphs))
					batch := ds.Graphs[lo:hi]
					out := make([]int, len(batch))
					s1, esc, _ := pred.PredictBatchCascadeTraced(bs, batch, out, nil)
					if n := countTrue(wantEsc[lo:hi]); esc != n || s1 != len(batch)-n {
						t.Fatalf("size %d: stage1 %d, escalated %d; reference escalates %d of %d", size, s1, esc, n, len(batch))
					}
					for i := range batch {
						if out[i] != want[lo+i] {
							t.Fatalf("size %d: graph %d cascade batch class %d, reference %d", size, lo+i, out[i], want[lo+i])
						}
					}
				}
			}
			for i, g := range ds.Graphs {
				if c, e := pred.PredictCascadeWith(es, g); c != want[i] || e != wantEsc[i] {
					t.Fatalf("graph %d: PredictCascadeWith (%d,%v), reference (%d,%v)", i, c, e, want[i], wantEsc[i])
				}
			}

			// The scratch serves full-width batches correctly afterwards.
			out := make([]int, len(ds.Graphs))
			pred.PredictBatchWith(bs, ds.Graphs, out)
			for i := range out {
				if out[i] != full[i] {
					t.Fatalf("post-cascade full-width batch class %d, reference %d", out[i], full[i])
				}
			}

			// An always-escalate margin reproduces full-dimension output
			// exactly (every stage-1 margin is at most DPrefix).
			if err := pred.SetCascade(Cascade{DPrefix: 256, Margin: 256}); err != nil {
				t.Fatal(err)
			}
			s1, esc, _ := pred.PredictBatchCascadeTraced(bs, ds.Graphs, out, nil)
			if s1 != 0 {
				t.Fatalf("always-escalate margin left %d stage-1 decisions", s1)
			}
			if esc != len(ds.Graphs) {
				t.Fatalf("always-escalate margin escalated %d of %d", esc, len(ds.Graphs))
			}
			for i := range out {
				if out[i] != full[i] {
					t.Fatalf("graph %d: escalated class %d differs from full-width reference %d", i, out[i], full[i])
				}
			}

			// Clearing the cascade reverts to single-stage behavior.
			pred.ClearCascade()
			if _, on := pred.Cascade(); on {
				t.Fatal("Cascade() reports active after ClearCascade")
			}
			s1, esc, on := pred.PredictBatchCascadeTraced(bs, ds.Graphs, out, nil)
			if on || s1 != 0 || esc != 0 {
				t.Fatalf("cleared cascade reported cascaded %v, counters %d/%d", on, s1, esc)
			}
			for i := range out {
				if out[i] != full[i] {
					t.Fatalf("graph %d: cleared-cascade class %d differs from full-width reference %d", i, out[i], full[i])
				}
			}
		})
	}
}

// TestCascadeMixedWidthScratch drives one scratch through an alternating
// sequence of cascade and full-width batches at two different prefix
// widths — the serving reload scenario — checking every answer against
// cascadeReference.
func TestCascadeMixedWidthScratch(t *testing.T) {
	ds, err := dataset.Generate("ENZYMES", dataset.Options{Seed: 31, GraphCount: 18})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	m, err := Train(cfg, ds.Graphs, ds.Labels)
	if err != nil {
		t.Fatal(err)
	}
	pred := m.Snapshot()
	refs := referenceEncodings(pred.Encoder(), ds.Graphs)
	full, _ := cascadeReference(t, pred, ds.Graphs, refs)
	bs := pred.Encoder().NewScratch()
	out := make([]int, len(ds.Graphs))
	widths := []Cascade{{DPrefix: 128, Margin: 6}, {DPrefix: 1000, Margin: 40}, {DPrefix: 128, Margin: 6}}
	for round, c := range widths {
		if err := pred.SetCascade(c); err != nil {
			t.Fatal(err)
		}
		want, _ := cascadeReference(t, pred, ds.Graphs, refs)
		pred.PredictBatchCascadeTraced(bs, ds.Graphs, out, nil)
		for i := range ds.Graphs {
			if out[i] != want[i] {
				t.Fatalf("round %d (dp=%d): graph %d class %d, reference %d", round, c.DPrefix, i, out[i], want[i])
			}
		}
		pred.PredictBatchWith(bs, ds.Graphs, out)
		for i := range ds.Graphs {
			if out[i] != full[i] {
				t.Fatalf("round %d: full-width graph %d class %d, reference %d", round, i, out[i], full[i])
			}
		}
	}
}

// TestCascadeSerializationRoundTrip pins the GRAPHHD3 record: a predictor
// with a cascade round-trips config and classes; one without still emits
// GRAPHHD2; corrupt cascade configs are rejected at load with the
// operator-facing validation text.
func TestCascadeSerializationRoundTrip(t *testing.T) {
	gs, ys := twoClassDataset(16, 41)
	m, err := Train(testConfig(), gs, ys)
	if err != nil {
		t.Fatal(err)
	}
	pred := m.Snapshot()

	// No cascade → GRAPHHD2, loads without one.
	var buf bytes.Buffer
	if _, err := pred.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if got := string(buf.Bytes()[:8]); got != "GRAPHHD2" {
		t.Fatalf("cascade-free predictor serialized with magic %q", got)
	}
	p2, err := ReadPredictor(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, on := p2.Cascade(); on {
		t.Fatal("GRAPHHD2 record loaded with an active cascade")
	}

	// Cascade set → GRAPHHD3 carrying the config.
	want := Cascade{DPrefix: 1000, Margin: 17}
	if err := pred.SetCascade(want); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if _, err := pred.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if got := string(buf.Bytes()[:8]); got != "GRAPHHD3" {
		t.Fatalf("cascade predictor serialized with magic %q", got)
	}
	p3, err := ReadPredictor(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got, on := p3.Cascade()
	if !on || got != want {
		t.Fatalf("round-tripped cascade = %+v (active %v), want %+v", got, on, want)
	}
	for c := 0; c < pred.NumClasses(); c++ {
		if !p3.ClassVector(c).Equal(pred.ClassVector(c)) {
			t.Fatalf("round-tripped class %d differs", c)
		}
	}
	// Loaded predictor classifies identically, including stage-1 state.
	es, es3 := pred.Encoder().NewScratch(), p3.Encoder().NewScratch()
	for i, g := range gs {
		wc, we := pred.PredictCascadeWith(es, g)
		gc, ge := p3.PredictCascadeWith(es3, g)
		if wc != gc || we != ge {
			t.Fatalf("graph %d: loaded cascade (%d,%v), want (%d,%v)", i, gc, ge, wc, we)
		}
	}

	// A corrupt cascade config is rejected at load with clear text.
	raw := buf.Bytes()
	bad := append([]byte(nil), raw...)
	// dprefix sits right after the 48-byte header (8 magic + 4 dim + 4
	// prIters + 8 damping + 8 seed + 4 flags + 4 metric + 4 k = 44).
	off := 44
	bad[off], bad[off+1], bad[off+2], bad[off+3] = 63, 0, 0, 0
	if _, err := ReadPredictor(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "below the minimum") {
		t.Fatalf("undersized cascade prefix loaded: err = %v", err)
	}
}

// TestPredictCascadeEdgeless checks that edgeless, empty and, under the
// labeled extension, labeled graphs go through the stage-1 margin test
// like every other graph, in the batch and per-graph cascade paths.
func TestPredictCascadeEdgeless(t *testing.T) {
	gs, ys := twoClassDataset(12, 43)
	cfg := testConfig()
	cfg.UseVertexLabels = true
	m, err := Train(cfg, gs, ys)
	if err != nil {
		t.Fatal(err)
	}
	pred := m.Snapshot()
	batch := withOddShapes(t, gs[:2])
	refs := referenceEncodings(pred.Encoder(), batch)
	bs := pred.Encoder().NewScratch()
	out := make([]int, len(batch))
	for _, c := range []Cascade{{DPrefix: 256, Margin: 4}, {DPrefix: 321, Margin: 256}} {
		if err := pred.SetCascade(c); err != nil {
			t.Fatal(err)
		}
		want, wantEsc := cascadeReference(t, pred, batch, refs)
		s1, esc, _ := pred.PredictBatchCascadeTraced(bs, batch, out, nil)
		if n := countTrue(wantEsc); esc != n || s1 != len(batch)-n {
			t.Fatalf("%+v: stage1 %d, escalated %d; reference escalates %d of %d", c, s1, esc, n, len(batch))
		}
		for i, g := range batch {
			if out[i] != want[i] {
				t.Fatalf("%+v: graph %d cascade batch class %d, reference %d", c, i, out[i], want[i])
			}
			if cl, e := pred.PredictCascadeWith(bs, g); cl != want[i] || e != wantEsc[i] {
				t.Fatalf("%+v: graph %d PredictCascadeWith (%d,%v), reference (%d,%v)", c, i, cl, e, want[i], wantEsc[i])
			}
		}
	}
}
