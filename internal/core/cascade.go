package core

import (
	"fmt"
	"time"

	"graphhd/internal/graph"
	"graphhd/internal/hdc"
)

// Prefix-sliced cascade classification (DESIGN.md §2c).
//
// Majority bundling and XNOR binding are componentwise, so the first
// dPrefix components of any full-width encoding are bit-identical to the
// encoding a dPrefix-dimensional model built from the same basis prefix
// would produce. A predictor can therefore classify at a fraction of
// full cost by encoding only the first ⌈dPrefix/64⌉ words of the SAME
// basis vectors — no second basis table, no re-encode — and consulting
// prefix copies of its class vectors. Hamming-similarity classification
// degrades gracefully as d shrinks (the paper's central accuracy–
// dimension trade), so most graphs are decided correctly at stage 1; the
// ambiguous rest — those whose top-two Hamming margin at prefix width
// falls inside a calibrated band — escalate to the full dimension.

// MinCascadePrefix is the smallest stage-1 dimension a cascade accepts:
// below one word of components the margin signal is pure noise.
const MinCascadePrefix = 64

// Cascade configures two-stage prefix-sliced classification on a
// Predictor: classify every graph at dimension DPrefix first, escalate
// to the full dimension only when the stage-1 top-two Hamming margin is
// at most Margin. Margin 0 still escalates exact near-ties; calibrate
// per dataset with internal/eval's CalibrateCascade for accuracy matched
// to the full-dimension baseline.
type Cascade struct {
	// DPrefix is the stage-1 dimension: the number of leading components
	// (not necessarily a multiple of 64 — the tail word is masked) of the
	// full basis used for the first pass.
	DPrefix int
	// Margin is the escalation threshold: a stage-1 decision whose
	// runner-up is within Margin Hamming distance of the winner is
	// re-decided at full dimension. Must be non-negative.
	Margin int
}

// Validate checks c against a model of dimension d, with the error text
// cmd/graphhd-serve and model loading surface to operators.
func (c Cascade) Validate(d int) error {
	if c.DPrefix < MinCascadePrefix {
		return fmt.Errorf("core: cascade prefix dimension %d below the minimum %d", c.DPrefix, MinCascadePrefix)
	}
	if c.DPrefix >= d {
		return fmt.Errorf("core: cascade prefix dimension %d must be smaller than the model dimension %d", c.DPrefix, d)
	}
	if c.Margin < 0 {
		return fmt.Errorf("core: negative cascade margin %d", c.Margin)
	}
	return nil
}

// cascadeState is the immutable per-configuration snapshot behind a
// predictor's cascade pointer: the config plus the prefix-sliced class
// vectors (canonical tail-masked copies, built once per SetCascade).
type cascadeState struct {
	cfg Cascade
	pm  *hdc.PackedMemory
}

// SetCascade enables prefix-sliced cascade classification, building the
// stage-1 prefix query memory from the predictor's class vectors. The
// swap is atomic: concurrent predictions see either the old or the new
// configuration, never a mix.
func (p *Predictor) SetCascade(c Cascade) error {
	if err := c.Validate(p.Dimension()); err != nil {
		return err
	}
	ppm, err := p.pm.Prefix(c.DPrefix)
	if err != nil {
		return err
	}
	p.cascade.Store(&cascadeState{cfg: c, pm: ppm})
	return nil
}

// ClearCascade disables cascade classification; predictions revert to
// single-stage full-dimension queries.
func (p *Predictor) ClearCascade() { p.cascade.Store(nil) }

// Cascade returns the active cascade configuration, if any.
func (p *Predictor) Cascade() (Cascade, bool) {
	if cs := p.cascade.Load(); cs != nil {
		return cs.cfg, true
	}
	return Cascade{}, false
}

// PrefixSnapshot returns a packed query memory over the first d
// components of every class vector — what calibration sweeps query when
// choosing a cascade margin. See hdc.PackedMemory.Prefix.
func (p *Predictor) PrefixSnapshot(d int) (*hdc.PackedMemory, error) {
	return p.pm.Prefix(d)
}

// PredictCascadeWith classifies g through the two-stage cascade using a
// caller-owned scratch, reporting whether the decision escalated to full
// dimension. It is PredictBatchCascadeWith on a batch of one: without an
// active cascade it behaves as PredictWith (never escalated); otherwise
// the stage-1 winner is returned when its margin clears the band, and
// the decision is re-made at full width — identical to PredictWith —
// when it does not.
func (p *Predictor) PredictCascadeWith(s *EncoderScratch, g *graph.Graph) (class int, escalated bool) {
	gs := [1]*graph.Graph{g}
	var out [1]int
	_, esc := p.PredictBatchCascadeTraced(s, gs[:], out[:], nil)
	return out[0], esc > 0
}

// PredictBatchCascadeWith is the serving cascade primitive: it encodes
// the whole micro-batch ONCE at stage-1 width, returns every unambiguous
// stage-1 answer, and escalates only the ambiguous graphs to full width —
// reusing the batch's centrality ranks and rank-pair grouping, so an
// escalation pays one extra full-width sign, not a second ranking pass.
// Classes land in out (len(out) must equal len(graphs)); the counts of
// stage-1 decisions and escalations feed the serve metrics. Graphs
// outside the packed fast path (labeled extension, edgeless) are decided
// at full dimension and counted as escalations. Without an active
// cascade it falls back to PredictBatchWith and reports zero for both
// counters.
func (p *Predictor) PredictBatchCascadeWith(s *EncoderScratch, graphs []*graph.Graph, out []int) (stage1, escalated int) {
	return p.PredictBatchCascadeTraced(s, graphs, out, nil)
}

// PredictBatchCascadeTraced is PredictBatchCascadeWith with an optional
// stage clock: when tr is non-nil, the plan/encode/classify/escalate
// phase wall times land in it. The cascade runs in four phases — rank
// and group every graph, sign every graph into per-graph prefix buffers,
// run the stage-1 margin test over all of them collecting the ambiguous
// indices, then escalate that worklist at full width — so each stamp is
// one clock read per phase, never per graph. Classes and counters are
// identical to PredictBatchCascadeWith.
func (p *Predictor) PredictBatchCascadeTraced(s *EncoderScratch, graphs []*graph.Graph, out []int, tr *BatchTrace) (stage1, escalated int) {
	cs := p.cascade.Load()
	if cs == nil {
		p.PredictBatchTraced(s, graphs, out, tr)
		return 0, 0
	}
	if s.enc != p.enc {
		panic("core: scratch bound to a different encoder")
	}
	if len(out) != len(graphs) {
		panic(fmt.Sprintf("core: %d results for %d graphs", len(out), len(graphs)))
	}
	dp := cs.cfg.DPrefix
	var t time.Time
	if tr != nil {
		t = time.Now()
	}
	s.group(graphs)
	if tr != nil {
		t = tr.stamp(&tr.PlanNanos, t)
	}
	// Encode phase: sign every fast-path graph at stage-1 width into its
	// own prefix buffer; graphs outside the packed fast path join the
	// fallback worklist (decided at full dimension below, counted as
	// escalations).
	pouts := s.prefixOuts(dp, len(graphs))
	s.counter.SetDim(dp)
	s.fbIdx = s.fbIdx[:0]
	for gi := range graphs {
		if !s.signInto(gi, pouts[gi]) {
			s.fbIdx = append(s.fbIdx, int32(gi))
		}
	}
	if tr != nil {
		t = tr.stamp(&tr.EncodeNanos, t)
	}
	// Classify phase: the stage-1 margin test. Ambiguous graphs are only
	// recorded here; the full-width work is batched into the next phase.
	s.escIdx = s.escIdx[:0]
	for gi := range graphs {
		if s.keyOff[gi] == s.keyOff[gi+1] {
			continue // outside the fast path, already on fbIdx
		}
		best, _, bestH, secondH := cs.pm.ClassifyTop2(pouts[gi])
		if secondH-bestH > cs.cfg.Margin {
			out[gi] = best
			stage1++
		} else {
			s.escIdx = append(s.escIdx, int32(gi))
		}
	}
	if tr != nil {
		t = tr.stamp(&tr.ClassifyNanos, t)
	}
	// Escalate phase: re-sign the ambiguous graphs at full width from
	// their retained keys, then decide the fallback graphs through the
	// reference encoder. Restores the counter's full-width invariant.
	s.counter.SetDim(p.enc.cfg.Dimension)
	for _, gi := range s.escIdx {
		s.signInto(int(gi), s.packed)
		out[gi] = p.pm.Classify(s.packed)
		escalated++
	}
	for _, gi := range s.fbIdx {
		out[gi] = p.pm.Classify(p.enc.encodeGraphSlow(graphs[gi]).PackBinary())
		escalated++
	}
	if tr != nil {
		tr.stamp(&tr.EscalateNanos, t)
	}
	return stage1, escalated
}
