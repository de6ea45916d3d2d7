package serve

// The Trainer closes the train-serve loop the paper's cheap-training claim
// makes possible: labeled feedback from live traffic flows back into an
// int32-accumulator core.Model running beside the packed serving
// predictor, and validated snapshots of it roll out through the registry's
// existing hot swap. The pipeline per model is
//
//	POST /v1/models/{name}/feedback
//	   → bounded feedback buffer (reject with 429 when full, never block
//	     the request path)
//	   → trainer goroutine: every HoldoutEvery-th sample is diverted to a
//	     bounded holdout ring, the rest apply perceptron-style updates
//	     (core.Model.OnlineUpdate — encode, classify, Learn/Unlearn on
//	     mistakes; each corrective update bumps the model revision)
//	   → snapshot trigger (SnapshotEvery trained samples or
//	     SnapshotInterval): candidate = Model.Snapshot()
//	   → holdout validation: the candidate and the serving predictor both
//	     classify the held-out slice; a candidate whose accuracy
//	     (eval.Accuracy against the labels) trails the serving predictor's
//	     by more than ValidationTolerance rolls back, and the share of
//	     graphs on which the two answer alike is reported beside the
//	     verdict as the candidate's agreement
//	   → promote via Registry.Swap — the engine's atomic swap, so in-flight
//	     requests never observe a mid-request model change — with the
//	     verdict kept in TrainerStatus and surfaced at GET /v1/models and
//	     cmd/inspect -models.
//
// Single-writer discipline: only the trainer goroutine mutates the model.
// Feed is called from request handlers and only touches the buffered
// channel; status reads are atomics or mutex-guarded copies.

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"graphhd/internal/core"
	"graphhd/internal/eval"
	"graphhd/internal/graph"
)

var (
	// ErrNoTrainer means feedback was posted for a model with no online
	// trainer attached; the HTTP front end maps it to 404.
	ErrNoTrainer = errors.New("serve: model has no online trainer")
	// ErrFeedbackBufferFull means the bounded feedback buffer is at
	// capacity; the HTTP front end maps it to 429. Feedback is shed, the
	// predict path is untouched.
	ErrFeedbackBufferFull = errors.New("serve: feedback buffer full")
	// ErrTrainerClosed means the trainer has been detached or its
	// registry closed; mapped to 503.
	ErrTrainerClosed = errors.New("serve: trainer closed")
	// ErrTrainerExists means AttachTrainer was called for a model that
	// already has one.
	ErrTrainerExists = errors.New("serve: trainer already attached")
	// ErrBadFeedbackLabel means a feedback label is outside [0,k);
	// mapped to 400.
	ErrBadFeedbackLabel = errors.New("serve: feedback label out of range")
)

// TrainerOptions configures an online trainer. The zero value of any
// field selects its default.
type TrainerOptions struct {
	// BufferSize bounds the feedback channel between the HTTP handlers
	// and the trainer goroutine; a full buffer sheds with
	// ErrFeedbackBufferFull. Default 1024.
	BufferSize int
	// SnapshotEvery triggers candidate validation after this many trained
	// (non-holdout) samples. Default 256.
	SnapshotEvery int
	// SnapshotInterval additionally triggers validation on a timer,
	// catching trickle feedback that never reaches SnapshotEvery. Zero
	// disables the timer.
	SnapshotInterval time.Duration
	// HoldoutEvery diverts every Nth feedback sample into the holdout
	// ring instead of training on it, keeping validation data disjoint
	// from training data. Default 8.
	HoldoutEvery int
	// HoldoutCap bounds the holdout ring; once full, new holdout samples
	// overwrite the oldest. Default 256.
	HoldoutCap int
	// MinHoldout is the smallest holdout slice validation will run
	// against; snapshot triggers before that are deferred. Default 16.
	MinHoldout int
	// ValidationTolerance is how far the candidate's holdout accuracy may
	// trail the serving predictor's before the snapshot is rolled back.
	// Default 0.02.
	ValidationTolerance float64
}

func (o TrainerOptions) withDefaults() TrainerOptions {
	if o.BufferSize <= 0 {
		o.BufferSize = 1024
	}
	if o.SnapshotEvery <= 0 {
		o.SnapshotEvery = 256
	}
	if o.HoldoutEvery <= 0 {
		o.HoldoutEvery = 8
	}
	if o.HoldoutCap <= 0 {
		o.HoldoutCap = 256
	}
	if o.MinHoldout <= 0 {
		o.MinHoldout = 16
	}
	if o.ValidationTolerance == 0 {
		o.ValidationTolerance = 0.02
	}
	return o
}

// feedbackSample is one labeled graph in the feedback buffer.
type feedbackSample struct {
	g     *graph.Graph
	label int
}

// Trainer drains labeled feedback into a core.Model and rolls validated
// snapshots out through the registry. Create one with
// Registry.AttachTrainer; it is safe for concurrent use.
type Trainer struct {
	reg   *Registry
	name  string
	model *core.Model
	opts  TrainerOptions

	buf    chan feedbackSample
	stop   chan struct{}
	wg     sync.WaitGroup
	closed atomic.Bool

	// Counters, all monotone: rendered as graphhd_feedback_* /
	// graphhd_trainer_* families.
	ingested  atomic.Uint64 // samples accepted into the buffer
	dropped   atomic.Uint64 // samples shed by the full buffer
	trained   atomic.Uint64 // samples applied as perceptron updates
	updates   atomic.Uint64 // corrective updates among them
	snapshots atomic.Uint64 // candidate snapshots validated
	promoted  atomic.Uint64 // candidates promoted via Registry.Swap
	rolledX   atomic.Uint64 // candidates rolled back

	holdoutLen atomic.Int64

	// trainer-goroutine-owned state
	holdout     []feedbackSample // ring of capacity HoldoutCap
	holdoutNext int              // ring write cursor
	seen        uint64           // total samples ingested (holdout cadence)
	sinceSnap   int              // trained samples since the last snapshot

	mu          sync.Mutex // guards the last-outcome fields below
	lastOutcome string
	lastWhen    time.Time
	lastCand    float64
	lastPrim    float64
	lastAgree   float64
}

// AttachTrainer wires an online trainer to the named resident model. The
// model argument is the trainable int32-accumulator form (e.g. loaded
// from a GRAPHHD1 artifact) that candidate snapshots are taken from; its
// class count must match the serving predictor's. The trainer starts its
// goroutine immediately and stops when the model is evicted, the registry
// closes, or Close is called.
func (r *Registry) AttachTrainer(name string, model *core.Model, opts TrainerOptions) (*Trainer, error) {
	if model == nil {
		return nil, errors.New("serve: nil trainer model")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, ErrRegistryClosed
	}
	m, ok := (*r.models.Load())[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrModelNotFound, name)
	}
	if m.trainer.Load() != nil {
		return nil, fmt.Errorf("%w: %q", ErrTrainerExists, name)
	}
	if k := m.eng.Predictor().NumClasses(); model.NumClasses() != k {
		return nil, fmt.Errorf("serve: trainer model has %d classes, serving model %q has %d",
			model.NumClasses(), name, k)
	}
	tr := &Trainer{
		reg:   r,
		name:  name,
		model: model,
		opts:  opts.withDefaults(),
		stop:  make(chan struct{}),
	}
	tr.buf = make(chan feedbackSample, tr.opts.BufferSize)
	tr.holdout = make([]feedbackSample, 0, tr.opts.HoldoutCap)
	m.trainer.Store(tr)
	tr.wg.Add(1)
	go tr.run()
	return tr, nil
}

// Trainer returns the online trainer attached to the named model, if any
// ("" is not resolved; callers go through Router.trainer for that).
func (r *Registry) Trainer(name string) (*Trainer, bool) {
	m, ok := r.model(name)
	if !ok {
		return nil, false
	}
	tr := m.trainer.Load()
	return tr, tr != nil
}

// NumClasses returns the label range the trainer accepts: [0, k).
func (tr *Trainer) NumClasses() int { return tr.model.NumClasses() }

// Model returns the trainable model feedback drains into.
func (tr *Trainer) Model() *core.Model { return tr.model }

// Options returns the trainer's resolved configuration — the options it
// was attached with, defaults applied.
func (tr *Trainer) Options() TrainerOptions { return tr.opts }

// Feed offers one labeled graph to the feedback buffer. It never blocks:
// a full buffer returns ErrFeedbackBufferFull (429), a closed trainer
// ErrTrainerClosed (503), a label outside [0,k) ErrBadFeedbackLabel
// (400). The graph must already be codec-validated; the trainer takes
// ownership of it.
func (tr *Trainer) Feed(g *graph.Graph, label int) error {
	if label < 0 || label >= tr.model.NumClasses() {
		return fmt.Errorf("%w: %d not in [0,%d)", ErrBadFeedbackLabel, label, tr.model.NumClasses())
	}
	if tr.closed.Load() {
		return ErrTrainerClosed
	}
	select {
	case tr.buf <- feedbackSample{g: g, label: label}:
		tr.ingested.Add(1)
		return nil
	default:
		tr.dropped.Add(1)
		return fmt.Errorf("%w: %d samples pending", ErrFeedbackBufferFull, len(tr.buf))
	}
}

// Close stops the trainer goroutine. Buffered feedback not yet drained is
// discarded. Idempotent.
func (tr *Trainer) Close() {
	if tr.closed.Swap(true) {
		return
	}
	close(tr.stop)
	tr.wg.Wait()
}

// run is the trainer goroutine: drain feedback, divert holdout, apply
// perceptron updates, and validate candidates on the snapshot triggers.
func (tr *Trainer) run() {
	defer tr.wg.Done()
	var tick <-chan time.Time
	if tr.opts.SnapshotInterval > 0 {
		t := time.NewTicker(tr.opts.SnapshotInterval)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-tr.stop:
			return
		case s := <-tr.buf:
			tr.ingest(s)
			if tr.sinceSnap >= tr.opts.SnapshotEvery {
				tr.validateCandidate()
			}
		case <-tick:
			if tr.sinceSnap > 0 {
				tr.validateCandidate()
			}
		}
	}
}

// ingest routes one sample: every HoldoutEvery-th into the holdout ring,
// the rest through a perceptron update on the trainable model.
func (tr *Trainer) ingest(s feedbackSample) {
	tr.seen++
	if tr.seen%uint64(tr.opts.HoldoutEvery) == 0 {
		if len(tr.holdout) < cap(tr.holdout) {
			tr.holdout = append(tr.holdout, s)
		} else {
			tr.holdout[tr.holdoutNext] = s
			tr.holdoutNext = (tr.holdoutNext + 1) % cap(tr.holdout)
		}
		tr.holdoutLen.Store(int64(len(tr.holdout)))
		return
	}
	updated, err := tr.model.OnlineUpdate(s.g, s.label)
	if err != nil {
		// Labels were validated in Feed; an error here means a
		// graph/encoder mismatch. Count it as trained-and-dropped rather
		// than crash the loop.
		return
	}
	tr.trained.Add(1)
	if updated {
		tr.updates.Add(1)
	}
	tr.sinceSnap++
}

// validateCandidate runs the snapshot → holdout gate → promote/rollback
// sequence. It blocks the trainer loop for the two holdout passes and the
// swap; feedback keeps buffering meanwhile.
func (tr *Trainer) validateCandidate() {
	tr.sinceSnap = 0
	if len(tr.holdout) < tr.opts.MinHoldout {
		tr.outcome(fmt.Sprintf("deferred: holdout %d of %d", len(tr.holdout), tr.opts.MinHoldout), 0, 0, 0)
		return
	}
	m, ok := tr.reg.model(tr.name)
	if !ok {
		return // evicted under us; Close follows
	}
	primary := m.eng.Predictor()
	candidate := tr.model.Snapshot()
	tr.snapshots.Add(1)

	hg := make([]*graph.Graph, len(tr.holdout))
	hy := make([]int, len(tr.holdout))
	for i, s := range tr.holdout {
		hg[i], hy[i] = s.g, s.label
	}
	candAns := candidate.PredictAll(hg)
	primAns := primary.PredictAll(hg)
	candAcc := eval.Accuracy(candAns, hy)
	primAcc := eval.Accuracy(primAns, hy)
	agreement := eval.Accuracy(candAns, primAns)

	if candAcc+tr.opts.ValidationTolerance < primAcc {
		tr.outcome(fmt.Sprintf("rolled back: holdout regression %.3f vs serving %.3f (tolerance %.3f), agreement %.3f",
			candAcc, primAcc, tr.opts.ValidationTolerance, agreement), candAcc, primAcc, agreement)
		tr.rolledX.Add(1)
		return
	}

	// Promote. The candidate swaps in at a batch boundary — never
	// mid-flight.
	if err := tr.reg.Swap(tr.name, candidate); err != nil {
		tr.outcome("rolled back: swap: "+err.Error(), candAcc, primAcc, agreement)
		tr.rolledX.Add(1)
		return
	}
	tr.outcome(fmt.Sprintf("promoted: holdout %.3f vs %.3f, agreement %.3f (revision %d)",
		candAcc, primAcc, agreement, candidate.Revision()), candAcc, primAcc, agreement)
	tr.promoted.Add(1)
}

// outcome records the last validation verdict for status surfaces. Callers
// record it before bumping the rollback or promotion counter, so a reader
// who sees a counter move also sees the verdict behind it.
func (tr *Trainer) outcome(s string, cand, prim, agree float64) {
	tr.mu.Lock()
	tr.lastOutcome = s
	tr.lastWhen = time.Now()
	tr.lastCand, tr.lastPrim, tr.lastAgree = cand, prim, agree
	tr.mu.Unlock()
}

// TrainerStatus is one trainer's row in GET /v1/models — the online
// learning loop's observable state, including the promote/rollback verdict
// of the last validated snapshot.
type TrainerStatus struct {
	Model     string `json:"model"`
	BufferLen int    `json:"buffer_len"`
	BufferCap int    `json:"buffer_cap"`
	Ingested  uint64 `json:"ingested"`
	Dropped   uint64 `json:"dropped"`
	Trained   uint64 `json:"trained"`
	Updates   uint64 `json:"updates"` // corrective perceptron updates
	Holdout   int    `json:"holdout"`
	// Revision is the live trainable model's online-update count;
	// ServingRevision is the revision stamped into the predictor
	// currently serving. A gap means updates not yet promoted.
	Revision        uint64 `json:"revision"`
	ServingRevision uint64 `json:"serving_revision"`
	Snapshots       uint64 `json:"snapshots"`
	Promotions      uint64 `json:"promotions"`
	Rollbacks       uint64 `json:"rollbacks"`
	// LastOutcome is the verdict of the most recent snapshot validation:
	// "promoted: ..." or "rolled back: <reason>" or "deferred: ...".
	LastOutcome     string    `json:"last_outcome,omitempty"`
	LastOutcomeTime time.Time `json:"last_outcome_time,omitempty"`
	// LastCandidateAcc and LastServingAcc are the candidate's and the
	// serving predictor's accuracy on the holdout at that validation;
	// LastAgreement is the share of holdout graphs on which the two gave
	// the same answer. All three are 0 after a deferral, and a measured 0
	// is reported, not omitted.
	LastCandidateAcc float64 `json:"last_candidate_acc"`
	LastServingAcc   float64 `json:"last_serving_acc"`
	LastAgreement    float64 `json:"last_agreement"`
}

// Status snapshots the trainer's observable state.
func (tr *Trainer) Status() TrainerStatus {
	st := TrainerStatus{
		Model:      tr.name,
		BufferLen:  len(tr.buf),
		BufferCap:  cap(tr.buf),
		Ingested:   tr.ingested.Load(),
		Dropped:    tr.dropped.Load(),
		Trained:    tr.trained.Load(),
		Updates:    tr.updates.Load(),
		Holdout:    int(tr.holdoutLen.Load()),
		Revision:   tr.model.Revision(),
		Snapshots:  tr.snapshots.Load(),
		Promotions: tr.promoted.Load(),
		Rollbacks:  tr.rolledX.Load(),
	}
	if m, ok := tr.reg.model(tr.name); ok {
		st.ServingRevision = m.eng.Predictor().Revision()
	}
	tr.mu.Lock()
	st.LastOutcome = tr.lastOutcome
	st.LastOutcomeTime = tr.lastWhen
	st.LastCandidateAcc = tr.lastCand
	st.LastServingAcc = tr.lastPrim
	st.LastAgreement = tr.lastAgree
	tr.mu.Unlock()
	return st
}

// TrainerStatuses snapshots every attached trainer, sorted by model name.
func (r *Registry) TrainerStatuses() []TrainerStatus {
	var out []TrainerStatus
	for _, m := range *r.models.Load() {
		if tr := m.trainer.Load(); tr != nil {
			out = append(out, tr.Status())
		}
	}
	sortTrainerStatuses(out)
	return out
}

func sortTrainerStatuses(s []TrainerStatus) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].Model < s[j-1].Model; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
