package core

import (
	"bytes"
	"errors"
	"testing"

	"graphhd/internal/graph"
	"graphhd/internal/hdc"
)

// TestRevisionDetectsStaleSnapshot is the regression test for the
// stale-snapshot hazard: a Predictor vended before online updates keeps
// serving the old class vectors, and before revision stamping there was
// no way to observe the skew.
func TestRevisionDetectsStaleSnapshot(t *testing.T) {
	gs, ys := twoClassDataset(20, 11)
	m, err := Train(testConfig(), gs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if m.Revision() != 0 {
		t.Fatalf("freshly fitted model revision = %d, want 0", m.Revision())
	}
	stale := m.Snapshot()
	if stale.Revision() != 0 {
		t.Fatalf("pre-update snapshot revision = %d, want 0", stale.Revision())
	}

	// Hard problem so retraining actually applies corrective updates.
	rng := hdc.NewRNG(8)
	var hg []*graph.Graph
	var hy []int
	for i := 0; i < 20; i++ {
		hg = append(hg, graph.ErdosRenyi(20, 0.10, rng))
		hy = append(hy, 0)
		hg = append(hg, graph.ErdosRenyi(20, 0.18, rng))
		hy = append(hy, 1)
	}
	updates, err := m.Retrain(hg, hy, RetrainOptions{Epochs: 5})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range updates {
		total += n
	}
	if total == 0 {
		t.Skip("retraining applied no corrective updates; problem too easy")
	}
	if got := m.Revision(); got != uint64(total) {
		t.Fatalf("model revision = %d, want %d (one per corrective update)", got, total)
	}
	// The skew is now observable: the old snapshot's stamp trails the
	// live model.
	if stale.Revision() >= m.Revision() {
		t.Fatalf("stale snapshot revision %d not behind model revision %d",
			stale.Revision(), m.Revision())
	}
	fresh := m.Snapshot()
	if fresh.Revision() != m.Revision() {
		t.Fatalf("fresh snapshot revision = %d, want %d", fresh.Revision(), m.Revision())
	}

	// Learn bumps too.
	before := m.Revision()
	if _, err := m.Learn(hg[0], hy[0]); err != nil {
		t.Fatal(err)
	}
	if m.Revision() != before+1 {
		t.Fatalf("Learn bumped revision %d -> %d, want +1", before, m.Revision())
	}
}

// TestRevisionSerializeRoundTrip pins the GRAPHHD4 record: a revised
// snapshot round-trips its revision, its reserved pair is written as
// zeroes, and a revision-0 snapshot still writes the byte-identical
// GRAPHHD2 record earlier releases produced.
func TestRevisionSerializeRoundTrip(t *testing.T) {
	gs, ys := twoClassDataset(20, 12)
	m, err := Train(testConfig(), gs, ys)
	if err != nil {
		t.Fatal(err)
	}
	// Force at least one corrective update deterministically.
	for i := range gs {
		wrong := 1 - ys[i]
		if up, err := m.OnlineUpdate(gs[i], wrong); err != nil {
			t.Fatal(err)
		} else if up {
			break
		}
	}
	if m.Revision() == 0 {
		t.Fatal("could not force a corrective update")
	}
	p := m.Snapshot()

	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if got := string(buf.Bytes()[:8]); got != "GRAPHHD4" {
		t.Fatalf("revised snapshot magic = %q, want GRAPHHD4", got)
	}
	if pair := buf.Bytes()[headerBytes+8 : headerBytes+16]; !bytes.Equal(pair, make([]byte, 8)) {
		t.Fatalf("reserved pair written as % x, want zeroes", pair)
	}
	back, err := ReadPredictor(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Revision() != p.Revision() {
		t.Fatalf("round-trip revision = %d, want %d", back.Revision(), p.Revision())
	}
	for _, g := range gs {
		if back.Predict(g) != p.Predict(g) {
			t.Fatal("round-trip predictions diverge")
		}
	}

	// Revision-0 snapshots keep the legacy magic so existing artifacts
	// stay byte-identical.
	m2, err := Train(testConfig(), gs, ys)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if _, err := m2.Snapshot().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if got := string(buf.Bytes()[:8]); got != "GRAPHHD2" {
		t.Fatalf("revision-0 snapshot magic = %q, want GRAPHHD2", got)
	}
}

func TestRetrainNonPositiveEpochs(t *testing.T) {
	gs, ys := twoClassDataset(4, 9)
	m, err := Train(testConfig(), gs, ys)
	if err != nil {
		t.Fatal(err)
	}
	for _, epochs := range []int{0, -3} {
		_, err := m.Retrain(gs, ys, RetrainOptions{Epochs: epochs})
		if !errors.Is(err, ErrNonPositiveEpochs) {
			t.Fatalf("Epochs=%d: err = %v, want ErrNonPositiveEpochs", epochs, err)
		}
	}
	if m.Revision() != 0 {
		t.Fatalf("rejected retrain bumped revision to %d", m.Revision())
	}
}

// TestRetrainEarlyStopContract pins the documented shape of the updates
// slice: one entry per epoch actually run, early stop recording a final
// zero-update epoch, never more entries than the epoch budget.
func TestRetrainEarlyStopContract(t *testing.T) {
	gs, ys := twoClassDataset(20, 13)
	m, err := Train(testConfig(), gs, ys)
	if err != nil {
		t.Fatal(err)
	}
	const budget = 50
	updates, err := m.Retrain(gs, ys, RetrainOptions{Epochs: budget})
	if err != nil {
		t.Fatal(err)
	}
	if len(updates) < 1 || len(updates) > budget {
		t.Fatalf("len(updates) = %d, want in [1,%d]", len(updates), budget)
	}
	if len(updates) < budget && updates[len(updates)-1] != 0 {
		t.Fatalf("early stop without an error-free final epoch: %v", updates)
	}
}

func TestOnlineUpdate(t *testing.T) {
	gs, ys := twoClassDataset(20, 14)
	m, err := Train(testConfig(), gs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.OnlineUpdate(gs[0], -1); err == nil {
		t.Fatal("label -1 accepted")
	}
	if _, err := m.OnlineUpdate(gs[0], m.NumClasses()); err == nil {
		t.Fatal("label k accepted")
	}
	if m.Revision() != 0 {
		t.Fatalf("rejected updates bumped revision to %d", m.Revision())
	}
	// A correctly-predicted sample must not mutate the model; a
	// wrongly-labeled one must.
	for _, g := range gs {
		pred := m.Predict(g)
		up, err := m.OnlineUpdate(g, pred)
		if err != nil {
			t.Fatal(err)
		}
		if up {
			t.Fatal("agreeing sample reported an update")
		}
		wrong := (pred + 1) % m.NumClasses()
		before := m.Revision()
		up, err = m.OnlineUpdate(g, wrong)
		if err != nil {
			t.Fatal(err)
		}
		if !up || m.Revision() != before+1 {
			t.Fatalf("disagreeing sample: updated=%v revision %d -> %d", up, before, m.Revision())
		}
		break
	}
}
