package core

import "testing"

// TestPredictBatchTraced checks the stage clock on the plain batch
// path: a non-nil BatchTrace comes back with every mandatory phase
// timed, results through the pooled scratch identical to the untraced
// primitive on a caller-owned one.
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
	pred.PredictBatchTraced(gs, got, &tr)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("graph %d: traced class %d, untraced %d", i, got[i], want[i])
		}
	}
	if tr.PlanNanos <= 0 || tr.EncodeNanos <= 0 || tr.ClassifyNanos <= 0 {
		t.Fatalf("phases untimed: %+v", tr)
	}
}
