package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"graphhd/internal/core"
	"graphhd/internal/dataset"
	"graphhd/internal/graph"
)

// trainableModel trains a full (int32-accumulator) model on the synthetic
// MUTAG workload, optionally with every label flipped — the two-sided
// setup the promotion and rollback tests build their determinism on: two
// models sharing one encoder basis whose class vectors disagree.
func trainableModel(t testing.TB, dim int, flip bool) (*core.Model, *graph.Dataset) {
	t.Helper()
	ds := dataset.MustGenerate("MUTAG", dataset.Options{Seed: 7, GraphCount: 48})
	labels := ds.Labels
	if flip {
		labels = make([]int, len(ds.Labels))
		for i, y := range ds.Labels {
			labels[i] = 1 - y
		}
	}
	cfg := core.DefaultConfig()
	cfg.Dimension = dim
	cfg.Seed = 1
	m, err := core.Train(cfg, ds.Graphs, labels)
	if err != nil {
		t.Fatal(err)
	}
	return m, ds
}

// TestTrainerPromotionFlipsServedPredictions is the tentpole's end-to-end
// proof: labeled feedback changes served predictions ONLY through a
// validated promotion. The primary serves a label-flipped model; the
// trainer holds the correctly-trained model, so every feedback sample
// agrees with it (OnlineUpdate no-ops) and the candidate snapshot is
// byte-deterministic. Until the promotion lands every served answer must
// match the flipped model; afterwards every answer must match the correct
// one — never anything else, never a torn mixture.
func TestTrainerPromotionFlipsServedPredictions(t *testing.T) {
	correct, ds := trainableModel(t, 1024, false)
	flipped, _ := trainableModel(t, 1024, true)
	wantOld := flipped.Snapshot().PredictAll(ds.Graphs)
	wantNew := correct.Snapshot().PredictAll(ds.Graphs)
	diverge := 0
	for i := range wantOld {
		if wantOld[i] != wantNew[i] {
			diverge++
		}
	}
	if diverge == 0 {
		t.Fatal("flipped and correct models agree everywhere; test cannot observe a promotion")
	}

	reg := NewRegistry(RegistryOptions{Workers: 2, MaxBatch: 8})
	defer reg.Close()
	if err := reg.Load("default", flipped.Snapshot()); err != nil {
		t.Fatal(err)
	}
	rt := NewRouter(reg, RouterOptions{})
	tr, err := reg.AttachTrainer("default", correct, TrainerOptions{
		BufferSize:    256,
		SnapshotEvery: 8,
		HoldoutEvery:  2,
		MinHoldout:    4,
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	deadline := time.Now().Add(15 * time.Second)
	promoted := false
	for !promoted {
		if time.Now().After(deadline) {
			t.Fatalf("no promotion within deadline: %+v", tr.Status())
		}
		for i, g := range ds.Graphs {
			if err := tr.Feed(g, ds.Labels[i]); err != nil && !errors.Is(err, ErrFeedbackBufferFull) {
				t.Fatalf("feed: %v", err)
			}
			class, err := rt.Predict(ctx, "", "", g)
			if err != nil {
				t.Fatalf("predict during online loop: %v", err)
			}
			if class != wantOld[i] && class != wantNew[i] {
				t.Fatalf("graph %d served class %d, which is neither the pre-promotion %d nor the post-promotion %d",
					i, class, wantOld[i], wantNew[i])
			}
			if tr.Status().Promotions > 0 {
				promoted = true
				break
			}
		}
	}

	// The promotion completed its swap before the counter bumped, so from
	// here the engine must serve the correct model.
	for i, g := range ds.Graphs {
		class, err := rt.Predict(ctx, "", "", g)
		if err != nil {
			t.Fatal(err)
		}
		if class != wantNew[i] {
			t.Fatalf("graph %d served class %d after promotion, want %d", i, class, wantNew[i])
		}
	}

	st := tr.Status()
	if !strings.HasPrefix(st.LastOutcome, "promoted") {
		t.Fatalf("last outcome = %q, want a promotion verdict", st.LastOutcome)
	}
	// Buffered feedback keeps draining after the first promotion, so a
	// second validation cycle may already have run here — only the
	// version lower bound is asserted.
	ms := reg.Status().Models[0]
	if ms.Version < 2 {
		t.Fatalf("registry version = %d after promotion, want >= 2", ms.Version)
	}
}

// TestTrainerRollbackOnHoldoutRegression proves the other gate: a
// candidate that regresses against held-out feedback never reaches the
// engine. The primary is the strong correctly-trained model; the
// trainer holds the label-flipped model, so its candidates score near
// zero on the (correctly labeled) holdout slice and every snapshot rolls
// back with a surfaced reason, leaving the serving version untouched.
func TestTrainerRollbackOnHoldoutRegression(t *testing.T) {
	correct, ds := trainableModel(t, 1024, false)
	flipped, _ := trainableModel(t, 1024, true)
	want := correct.Snapshot().PredictAll(ds.Graphs)

	reg := NewRegistry(RegistryOptions{Workers: 1, MaxBatch: 8})
	defer reg.Close()
	if err := reg.Load("default", correct.Snapshot()); err != nil {
		t.Fatal(err)
	}
	rt := NewRouter(reg, RouterOptions{})
	tr, err := reg.AttachTrainer("default", flipped, TrainerOptions{
		BufferSize:    256,
		SnapshotEvery: 8,
		HoldoutEvery:  2,
		MinHoldout:    8,
	})
	if err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(15 * time.Second)
	for tr.Status().Rollbacks == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no rollback within deadline: %+v", tr.Status())
		}
		for i, g := range ds.Graphs {
			if err := tr.Feed(g, ds.Labels[i]); err != nil && !errors.Is(err, ErrFeedbackBufferFull) {
				t.Fatalf("feed: %v", err)
			}
		}
		time.Sleep(time.Millisecond)
	}

	st := tr.Status()
	if !strings.Contains(st.LastOutcome, "rolled back: holdout regression") {
		t.Fatalf("last outcome = %q, want a holdout-regression rollback", st.LastOutcome)
	}
	if st.Promotions != 0 {
		t.Fatalf("bad candidate was promoted %d times", st.Promotions)
	}
	ms := reg.Status().Models[0]
	if ms.Version != 1 {
		t.Fatalf("registry version = %d after rollback, want 1 (swap never ran)", ms.Version)
	}
	// The engine still serves the original model, untouched.
	ctx := context.Background()
	for i, g := range ds.Graphs {
		class, err := rt.Predict(ctx, "", "", g)
		if err != nil {
			t.Fatal(err)
		}
		if class != want[i] {
			t.Fatalf("graph %d served class %d after rollback, want %d", i, class, want[i])
		}
	}
}

// TestTrainerValidateReportsAgreement pins the agreement the holdout gate
// reports: the share of holdout graphs on which the candidate and the
// serving predictor give the same answer. A goroutine-less trainer shell
// holds the correctly-trained model over a fixed holdout while a
// label-flipped model serves, so the candidate promotes. On its own
// training graphs, or on a basis shared with the correct model, the
// flipped model answers the exact complement and the agreement is 0,
// which would pin nothing; so it has its own basis (seed 2) and the
// holdout is graphs neither model trained on.
func TestTrainerValidateReportsAgreement(t *testing.T) {
	correct, ds := trainableModel(t, 1024, false)
	flippedLabels := make([]int, len(ds.Labels))
	for i, y := range ds.Labels {
		flippedLabels[i] = 1 - y
	}
	cfg := core.DefaultConfig()
	cfg.Dimension = 1024
	cfg.Seed = 2
	flipped, err := core.Train(cfg, ds.Graphs, flippedLabels)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry(RegistryOptions{Workers: 1})
	defer reg.Close()
	if err := reg.Load("default", flipped.Snapshot()); err != nil {
		t.Fatal(err)
	}
	tr := &Trainer{reg: reg, name: "default", model: correct, opts: TrainerOptions{}.withDefaults(),
		buf: make(chan feedbackSample, 1), stop: make(chan struct{})}
	tr.holdout = make([]feedbackSample, 0, tr.opts.HoldoutCap)
	hold := dataset.MustGenerate("MUTAG", dataset.Options{Seed: 8, GraphCount: 48})
	for i, g := range hold.Graphs {
		tr.holdout = append(tr.holdout, feedbackSample{g: g, label: hold.Labels[i]})
	}

	cand := correct.Snapshot().PredictAll(hold.Graphs)
	prim := flipped.Snapshot().PredictAll(hold.Graphs)
	same := 0
	for i := range cand {
		if cand[i] == prim[i] {
			same++
		}
	}
	want := float64(same) / float64(len(cand))

	tr.validateCandidate()
	st := tr.Status()
	if !strings.HasPrefix(st.LastOutcome, "promoted") {
		t.Fatalf("last outcome = %q, want a promotion verdict", st.LastOutcome)
	}
	if st.LastAgreement <= 0 || st.LastAgreement >= 1 {
		t.Fatalf("agreement = %v, want strictly between 0 and 1 for this fixture", st.LastAgreement)
	}
	if st.LastAgreement != want {
		t.Fatalf("agreement = %v, want %v (%d of %d holdout answers match)", st.LastAgreement, want, same, len(cand))
	}
	if s := fmt.Sprintf("agreement %.3f", want); !strings.Contains(st.LastOutcome, s) {
		t.Fatalf("last outcome = %q, want it to carry %q", st.LastOutcome, s)
	}
}

// TestTrainerStatusJSONKeepsZeros checks that a measured zero survives
// into GET /v1/models: a candidate that got every holdout graph wrong, or
// one that flips every answer, must still show its accuracy and
// agreement keys.
func TestTrainerStatusJSONKeepsZeros(t *testing.T) {
	b, err := json.Marshal(TrainerStatus{
		Model:          "default",
		Rollbacks:      1,
		LastOutcome:    "rolled back: holdout regression 0.000 vs serving 1.000 (tolerance 0.020), agreement 0.000",
		LastServingAcc: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"last_candidate_acc":0`, `"last_agreement":0`} {
		if !strings.Contains(string(b), key) {
			t.Errorf("status JSON %s lacks %s", b, key)
		}
	}
}

// TestTrainerFeedValidation pins the non-HTTP half of the feedback
// hardening: label range, buffer bounds and closed-trainer behavior all
// surface as typed errors, never panics.
func TestTrainerFeedValidation(t *testing.T) {
	correct, ds := trainableModel(t, 512, false)
	reg := NewRegistry(RegistryOptions{Workers: 1})
	defer reg.Close()
	if err := reg.Load("default", correct.Snapshot()); err != nil {
		t.Fatal(err)
	}

	if _, err := reg.AttachTrainer("missing", correct, TrainerOptions{}); !errors.Is(err, ErrModelNotFound) {
		t.Fatalf("attach to missing model: %v, want ErrModelNotFound", err)
	}
	tr, err := reg.AttachTrainer("default", correct, TrainerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.AttachTrainer("default", correct, TrainerOptions{}); !errors.Is(err, ErrTrainerExists) {
		t.Fatalf("double attach: %v, want ErrTrainerExists", err)
	}
	if got := modelEngine(t, reg, "default").trainer.Load(); got != tr {
		t.Fatal("the model does not hold the attached trainer")
	}

	if err := tr.Feed(ds.Graphs[0], -1); !errors.Is(err, ErrBadFeedbackLabel) {
		t.Fatalf("label -1: %v, want ErrBadFeedbackLabel", err)
	}
	if err := tr.Feed(ds.Graphs[0], tr.NumClasses()); !errors.Is(err, ErrBadFeedbackLabel) {
		t.Fatalf("label k: %v, want ErrBadFeedbackLabel", err)
	}

	tr.Close()
	tr.Close() // idempotent
	if err := tr.Feed(ds.Graphs[0], 0); !errors.Is(err, ErrTrainerClosed) {
		t.Fatalf("feed after close: %v, want ErrTrainerClosed", err)
	}
}

// TestTrainerSnapshotIntervalDefers covers the timer-driven validation
// trigger: with trickle feedback and a holdout minimum that cannot be
// met, the interval tick must still attempt validation and record a
// deferred outcome instead of promoting or rolling back blind.
func TestTrainerSnapshotIntervalDefers(t *testing.T) {
	m, ds := trainableModel(t, 512, false)
	reg := NewRegistry(RegistryOptions{Workers: 1})
	defer reg.Close()
	if err := reg.Load("default", m.Snapshot()); err != nil {
		t.Fatal(err)
	}
	tr, err := reg.AttachTrainer("default", m, TrainerOptions{
		SnapshotEvery:    1 << 30, // only the interval may trigger
		SnapshotInterval: 5 * time.Millisecond,
		HoldoutEvery:     2,
		MinHoldout:       1 << 20, // unreachable: every attempt defers
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := tr.Feed(ds.Graphs[i], ds.Labels[i]); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := tr.Status()
		if strings.HasPrefix(st.LastOutcome, "deferred") {
			if st.Promotions != 0 || st.Rollbacks != 0 {
				t.Fatalf("deferred validation must not promote or roll back: %+v", st)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no deferred outcome recorded; status %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTrainerStatusesSorted pins the accessor surface and the status
// listing order: two attached trainers report sorted by model name with
// their resolved options and backing models reachable.
func TestTrainerStatusesSorted(t *testing.T) {
	mb, _ := trainableModel(t, 512, false)
	ma, _ := trainableModel(t, 512, true)
	reg := NewRegistry(RegistryOptions{Workers: 1})
	defer reg.Close()
	// Load in reverse name order so a sorted result is not insertion order.
	if err := reg.Load("beta", mb.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if err := reg.Load("alpha", ma.Snapshot()); err != nil {
		t.Fatal(err)
	}
	trb, err := reg.AttachTrainer("beta", mb, TrainerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tra, err := reg.AttachTrainer("alpha", ma, TrainerOptions{BufferSize: 7})
	if err != nil {
		t.Fatal(err)
	}
	if tra.model != ma || trb.model != mb {
		t.Fatal("a trainer does not hold the model it was attached with")
	}
	if got := tra.Options().BufferSize; got != 7 {
		t.Fatalf("Options().BufferSize = %d, want the attached 7", got)
	}
	if got := trb.Options().BufferSize; got != (TrainerOptions{}).withDefaults().BufferSize {
		t.Fatalf("Options().BufferSize = %d, want the resolved default", got)
	}
	sts := reg.TrainerStatuses()
	if len(sts) != 2 || sts[0].Model != "alpha" || sts[1].Model != "beta" {
		t.Fatalf("TrainerStatuses not sorted by model: %+v", sts)
	}
}

// samplesToFirstVerdict returns how many feedback samples a trainer with
// opts ingests up to and including the one that triggers its first
// validated candidate: every HoldoutEvery-th sample goes to the holdout,
// the rest train, and every SnapshotEvery-th trained sample triggers a
// validation, deferred while the holdout holds fewer than MinHoldout.
func samplesToFirstVerdict(opts TrainerOptions) int {
	o := opts.withDefaults()
	trained, holdout := 0, 0
	for seen := 1; ; seen++ {
		if seen%o.HoldoutEvery == 0 {
			holdout++
			continue
		}
		if trained++; trained%o.SnapshotEvery == 0 && holdout >= o.MinHoldout {
			return seen
		}
	}
}

// TestRouterSoakOnlineLoop extends TestRouterSoakRollingSwap (run under -race
// in CI) with the full online learning loop live: two models take mixed
// predict traffic and concurrent labeled feedback while their
// trainers snapshot, validate on the holdout, and promote ("promo":
// flipped primary, correct trainer) or roll back ("rollb": correct
// primary, flipped trainer). At quiesce it asserts zero failed in-flight
// requests across every promote/rollback cycle, at least one of each
// verdict, and exact accepted==processed conservation on the engines.
func TestRouterSoakOnlineLoop(t *testing.T) {
	correct, ds := trainableModel(t, 1024, false)
	flipped, _ := trainableModel(t, 1024, true)

	reg := NewRegistry(RegistryOptions{
		Workers:  2,
		MaxBatch: 8,
	})
	if err := reg.Load("promo", flipped.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if err := reg.Load("rollb", correct.Snapshot()); err != nil {
		t.Fatal(err)
	}
	rt := NewRouter(reg, RouterOptions{DefaultModel: "promo"})

	topts := TrainerOptions{
		BufferSize:    512,
		SnapshotEvery: 16,
		HoldoutEvery:  4,
		MinHoldout:    8,
	}
	// promoTrainer learns from a fresh copy of the correct model; the
	// soak's feedback agrees with it, so promotion is guaranteed once the
	// holdout fills. rollbTrainer holds the flipped model and learns from
	// the same correct feedback, so a candidate built late enough could
	// tie the serving model on the holdout and be promoted. Its feed
	// therefore stops at the sample that completes its first validated
	// candidate: that candidate comes from a fixed prefix of the feedback,
	// the same in every run, and regresses; no candidate follows it.
	rollbFeed := samplesToFirstVerdict(topts)
	promoBase, _ := trainableModel(t, 1024, false)
	rollbBase, _ := trainableModel(t, 1024, true)
	promoTr, err := reg.AttachTrainer("promo", promoBase, topts)
	if err != nil {
		t.Fatal(err)
	}
	rollbTr, err := reg.AttachTrainer("rollb", rollbBase, topts)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var stopOnce sync.Once
	halt := func() { stopOnce.Do(func() { close(stop) }) }
	deadline := time.AfterFunc(20*time.Second, halt)
	defer deadline.Stop()

	var wg sync.WaitGroup
	var graphsOK, failures atomic.Uint64
	ctx := context.Background()

	predictClient := func(model string, batch int) {
		defer wg.Done()
		out := make([]int, batch)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			lo := i % (len(ds.Graphs) - batch)
			var err error
			if batch == 1 {
				_, err = rt.Predict(ctx, "", model, ds.Graphs[lo])
			} else {
				err = rt.PredictBatchInto(ctx, "", model, ds.Graphs[lo:lo+batch], out)
			}
			if err != nil {
				failures.Add(1)
				t.Errorf("predict %q failed in flight: %v", model, err)
				return
			}
			graphsOK.Add(uint64(batch))
		}
	}
	// feedbackClient feeds tr the dataset in order, limit samples, or
	// without end when limit is 0.
	feedbackClient := func(tr *Trainer, limit int) {
		defer wg.Done()
		for i := 0; limit == 0 || i < limit; i++ {
			select {
			case <-stop:
				return
			default:
			}
			gi := i % len(ds.Graphs)
			if err := tr.Feed(ds.Graphs[gi], ds.Labels[gi]); err != nil &&
				!errors.Is(err, ErrFeedbackBufferFull) && !errors.Is(err, ErrTrainerClosed) {
				failures.Add(1)
				t.Errorf("feedback failed: %v", err)
				return
			}
			if i%64 == 0 {
				time.Sleep(50 * time.Microsecond) // let the trainer drain
			}
		}
	}
	for _, model := range []string{"promo", "rollb"} {
		for _, batch := range []int{1, 1, 8} {
			wg.Add(1)
			go predictClient(model, batch)
		}
	}
	wg.Add(2)
	go feedbackClient(promoTr, 0)
	go feedbackClient(rollbTr, rollbFeed)

	// Watcher: end the soak once both verdicts have happened.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(5 * time.Millisecond):
			}
			if promoTr.Status().Promotions > 0 && rollbTr.Status().Rollbacks > 0 {
				halt()
				return
			}
		}
	}()
	wg.Wait()

	promoSt, rollbSt := promoTr.Status(), rollbTr.Status()
	promoM, _ := reg.model("promo")
	rollbM, _ := reg.model("rollb")
	reg.Close() // drains every admitted request and stops both trainers

	if failures.Load() != 0 {
		t.Fatalf("%d requests failed in flight during the online loop soak", failures.Load())
	}
	if promoSt.Promotions == 0 {
		t.Fatalf("promo trainer never promoted: %+v", promoSt)
	}
	if rollbSt.Rollbacks == 0 {
		t.Fatalf("rollb trainer never rolled back: %+v", rollbSt)
	}
	if rollbSt.Promotions != 0 {
		t.Fatalf("rollb trainer promoted a regressing candidate %d times", rollbSt.Promotions)
	}
	if rollbSt.Snapshots != 1 {
		t.Fatalf("rollb trainer validated %d candidates from %d samples, want 1", rollbSt.Snapshots, rollbFeed)
	}

	for _, m := range []*Engine{promoM, rollbM} {
		em := m.Metrics()
		if em.AcceptedGraphs != em.Processed || em.InFlight != 0 {
			t.Fatalf("model %q did not quiesce clean: accepted %d, processed %d, inflight %d",
				m.name, em.AcceptedGraphs, em.Processed, em.InFlight)
		}
	}
	t.Logf("online loop soak: %d graphs answered; promo %d promotions; rollb %d rollbacks; outcomes %q / %q",
		graphsOK.Load(), promoSt.Promotions, rollbSt.Rollbacks, promoSt.LastOutcome, rollbSt.LastOutcome)
}
