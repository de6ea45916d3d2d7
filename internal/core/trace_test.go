package core

import (
	"testing"

	"graphhd/internal/graph"
)

// TestPredictBatchTraced checks the stage clock on the plain batch
// path: a non-nil BatchTrace comes back with every mandatory phase
// timed, results identical to the untraced primitive.
func TestPredictBatchTraced(t *testing.T) {
	gs, ys := twoClassDataset(16, 41)
	m, err := Train(testConfig(), gs, ys)
	if err != nil {
		t.Fatal(err)
	}
	pred := m.Snapshot()
	bs := pred.Encoder().NewScratch()

	want := make([]int, len(gs))
	pred.PredictBatchWith(bs, gs, want)

	var tr BatchTrace
	got := make([]int, len(gs))
	pred.PredictBatchTraced(bs, gs, got, &tr)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("graph %d: traced class %d, untraced %d", i, got[i], want[i])
		}
	}
	if tr.PlanNanos <= 0 || tr.EncodeNanos <= 0 || tr.ClassifyNanos <= 0 {
		t.Fatalf("phases untimed: %+v", tr)
	}
	if tr.EscalateNanos != 0 {
		t.Fatalf("plain batch path timed an escalate phase: %+v", tr)
	}
}

// TestPredictBatchCascadeTraced checks the stage clock on the cascade
// path across its branches: stage-1 exits, margin escalations, and the
// outside-fast-path fallbacks (edgeless graphs), with classes identical
// to the untraced primitive and the escalate phase timed.
func TestPredictBatchCascadeTraced(t *testing.T) {
	gs, ys := twoClassDataset(16, 41)
	edgeless, err := graph.FromEdges(5, nil)
	if err != nil {
		t.Fatal(err)
	}
	gs = append(gs, edgeless)

	m, err := Train(testConfig(), gs[:len(gs)-1], ys)
	if err != nil {
		t.Fatal(err)
	}
	pred := m.Snapshot()
	// A mid-band margin so both stage-1 exits and escalations occur.
	if err := pred.SetCascade(Cascade{DPrefix: 256, Margin: 8}); err != nil {
		t.Fatal(err)
	}
	bs := pred.Encoder().NewScratch()

	want := make([]int, len(gs))
	wantS1, wantEsc := pred.PredictBatchCascadeWith(bs, gs, want)

	var tr BatchTrace
	got := make([]int, len(gs))
	s1, esc := pred.PredictBatchCascadeTraced(bs, gs, got, &tr)
	if s1 != wantS1 || esc != wantEsc {
		t.Fatalf("traced counters (%d, %d) != untraced (%d, %d)", s1, esc, wantS1, wantEsc)
	}
	if s1+esc != len(gs) {
		t.Fatalf("stage1 %d + escalated %d != %d graphs", s1, esc, len(gs))
	}
	if esc == 0 {
		t.Fatal("test batch produced no escalations; margin band lost its purpose")
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("graph %d: traced class %d, untraced %d", i, got[i], want[i])
		}
	}
	if tr.PlanNanos <= 0 || tr.EncodeNanos <= 0 || tr.ClassifyNanos <= 0 || tr.EscalateNanos <= 0 {
		t.Fatalf("phases untimed: %+v", tr)
	}

	// Without a cascade the traced entry falls through to the plain
	// batch path, counters zero.
	pred.ClearCascade()
	var plain BatchTrace
	s1, esc = pred.PredictBatchCascadeTraced(bs, gs, got, &plain)
	if s1 != 0 || esc != 0 {
		t.Fatalf("no-cascade counters (%d, %d), want (0, 0)", s1, esc)
	}
	if plain.PlanNanos <= 0 || plain.EscalateNanos != 0 {
		t.Fatalf("no-cascade trace: %+v", plain)
	}
}
