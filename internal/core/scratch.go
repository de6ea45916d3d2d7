package core

import (
	"fmt"
	"slices"

	"graphhd/internal/centrality"
	"graphhd/internal/graph"
	"graphhd/internal/hdc"
)

// EncoderScratch holds every reusable buffer one encoding goroutine needs:
// the centrality scratch (PageRank power-iteration vectors and the rank
// sort order), the rank slice, the rank-pair grouping buffers, the SWAR
// majority counter, and the output hypervectors. Once its buffers have
// grown to the largest batch seen, encoding unlabeled graphs with edges
// performs zero heap allocations.
//
// Every encode path runs the same two steps over a batch of graphs; the
// per-graph calls are batches of one:
//
//  1. group ranks each graph by centrality and turns its edges into
//     packed (minRank, maxRank) keys, sorted per graph. An edge's bind
//     vector depends only on the unordered rank pair of its endpoints
//     (XNOR is commutative), so equal keys are one operand with a
//     multiplicity.
//  2. signInto (or accumulate, for bipolar outputs) walks one graph's
//     sorted keys into XNOR operand pairs read straight off the packed
//     basis table — multiplicity-1 pairs for the blocked carry-save
//     kernels, the rare grouped pairs with their multiplicities — and
//     takes the majority at the counter's current width.
//
// Bundling counts are exact integer sums, so regrouping and reordering
// leave every encoding bit-for-bit identical to the per-edge int8
// reference (Encoder.encodeGraphSlow). The keys and the basis snapshot do
// not depend on the width, which is what lets the cascade re-sign a
// graph at full width after a prefix-width pass without ranking it again.
//
// Obtain one from Encoder.NewScratch, or rely on the Encoder and
// Predictor APIs, which vend pooled scratches per call or per batch
// chunk. A scratch is bound to its encoder and is not safe for concurrent
// use; each goroutine owns its own. Results returned by the scratch's
// methods live in its buffers and are only valid until the next call on
// the same scratch.
type EncoderScratch struct {
	enc     *Encoder
	cent    centrality.Scratch
	ranks   []int
	counter *hdc.BitCounter
	packed  *hdc.Binary // full-width sign buffer for cascade escalations
	bipolar *hdc.Bipolar

	// Grouping state of the last grouped batch: graph i's sorted keys are
	// keys[keyOff[i]:keyOff[i+1]], empty for graphs outside the packed
	// fast path; basis is the packed basis-table snapshot the keys index.
	keys   []uint64
	keyOff []int
	basis  []*hdc.Binary
	// The operands of one graph at a time: pairs holds the
	// multiplicity-1 XNOR pairs for the blocked kernels, wPairs/wMults
	// the multiplicity-grouped ones.
	pairs  []hdc.XorPair
	wPairs []hdc.XorPair
	wMults []int32

	// Per-graph outputs of the batch calls, full-width (outs) and
	// prefix-width (pouts, rebuilt only when the width changes), and the
	// cascade's worklists: the graphs the classify phase marked for
	// full-width escalation and those outside the packed fast path.
	outs   []*hdc.Binary
	pouts  []*hdc.Binary
	poutsD int
	escIdx []int32
	fbIdx  []int32
}

// NewScratch returns a fresh scratch bound to e, for callers that manage
// per-goroutine reuse themselves (serving workers, the benchmark
// harness). Everything else can rely on the pooled scratches behind the
// Encoder and Predictor APIs.
func (e *Encoder) NewScratch() *EncoderScratch {
	d := e.cfg.Dimension
	return &EncoderScratch{
		enc:     e,
		counter: hdc.NewBitCounter(d),
		packed:  hdc.NewBinary(d),
		bipolar: hdc.NewBipolar(d),
	}
}

// NewBatchScratch is NewScratch. It remains because the perfbench
// harness calls it by this name.
func (e *Encoder) NewBatchScratch() *EncoderScratch { return e.NewScratch() }

// getScratch vends a pooled scratch; return it with putScratch. The pool
// keeps per-P free lists, so steady-state Get/Put allocates nothing.
func (e *Encoder) getScratch() *EncoderScratch {
	return e.scratch.Get().(*EncoderScratch)
}

func (e *Encoder) putScratch(s *EncoderScratch) { e.scratch.Put(s) }

// Ranks computes the centrality ranks of g's vertices into the scratch's
// reusable slice. The result is valid until the next call on s.
func (s *EncoderScratch) Ranks(g *graph.Graph) []int {
	e := s.enc
	s.ranks = centrality.RanksInto(g, e.cfg.Centrality, centrality.Options{
		Iterations: e.prOpts.Iterations,
		Damping:    e.prOpts.Damping,
	}, s.ranks, &s.cent)
	return s.ranks
}

// group ranks every graph and builds its sorted rank-pair key segment —
// the "plan" stage of BatchTrace. Graphs outside the packed fast path
// (the labeled extension, edgeless graphs; see Encoder.EncodeGraph) get
// an empty segment.
func (s *EncoderScratch) group(graphs []*graph.Graph) {
	e := s.enc
	s.keys = s.keys[:0]
	s.keyOff = append(s.keyOff[:0], 0)
	maxN := 0
	for _, g := range graphs {
		if !(e.cfg.UseVertexLabels && g.Labeled()) && g.NumEdges() > 0 {
			maxN = max(maxN, g.NumVertices())
			ranks := s.Ranks(g)
			lo := len(s.keys)
			for _, ed := range g.Edges() {
				ru, rv := ranks[ed.U], ranks[ed.V]
				if ru > rv {
					ru, rv = rv, ru
				}
				s.keys = append(s.keys, uint64(ru)<<32|uint64(uint32(rv)))
			}
			slices.Sort(s.keys[lo:])
		}
		s.keyOff = append(s.keyOff, len(s.keys))
	}
	s.basis = nil
	if maxN > 0 {
		s.basis = e.packedSlice(maxN) // one lock round per batch
	}
}

// collect walks graph gi's sorted key segment into operand pairs,
// reporting whether the graph is on the packed fast path (a non-empty
// segment).
func (s *EncoderScratch) collect(gi int) bool {
	seg := s.keys[s.keyOff[gi]:s.keyOff[gi+1]]
	pairs, wPairs, wMults := s.pairs[:0], s.wPairs[:0], s.wMults[:0]
	for j := 0; j < len(seg); {
		k := seg[j]
		j2 := j + 1
		for j2 < len(seg) && seg[j2] == k {
			j2++
		}
		// XNOR of the packed endpoints is exactly the bipolar product
		// under the bit 1 ↔ +1 mapping.
		p := hdc.XorPair{A: s.basis[k>>32], B: s.basis[uint32(k)], Invert: true}
		if j2-j == 1 {
			pairs = append(pairs, p)
		} else {
			wPairs = append(wPairs, p)
			wMults = append(wMults, int32(j2-j))
		}
		j = j2
	}
	s.pairs, s.wPairs, s.wMults = pairs, wPairs, wMults
	return len(seg) > 0
}

// accumulate fills the counter with graph gi's operands at its current
// width, reporting whether the graph is on the packed fast path.
func (s *EncoderScratch) accumulate(gi int) bool {
	if !s.collect(gi) {
		return false
	}
	s.fill()
	return true
}

// fill streams the collected operands into the counter: the
// multiplicity-1 pairs through the blocked carry-save front end, the
// grouped ones with their multiplicities.
func (s *EncoderScratch) fill() {
	c := s.counter
	c.Reset()
	c.AddXorPairs(s.pairs)
	for i, p := range s.wPairs {
		c.AddXorWeighted(p.A, p.B, p.Invert, int(s.wMults[i]))
	}
}

// signInto encodes graph gi into dst at the counter's current width,
// reporting whether the graph is on the packed fast path. Bundles of up
// to hdc.MaxSmallSign unit-multiplicity pairs — the common serving case —
// take the one-shot bit-sliced majority kernel and skip the counter
// tiers; the rest accumulate and sign through the counter.
func (s *EncoderScratch) signInto(gi int, dst *hdc.Binary) bool {
	if !s.collect(gi) {
		return false
	}
	tie := s.enc.packedTie
	if len(s.wPairs) == 0 && len(s.pairs) <= hdc.MaxSmallSign {
		s.counter.SignXorPairsSmallInto(s.pairs, tie, dst)
		return true
	}
	s.fill()
	s.counter.SignBinaryInto(tie, dst)
	return true
}

// PlanStats reports the last grouped batch's edge rank-pair instances
// and the rank-pair groups the encode accumulated for them. The two are
// equal unless a graph repeats a rank pair (multigraph inputs or rank
// collisions), whose edges then share one weighted operand.
func (s *EncoderScratch) PlanStats() (pairs, groups int) {
	for gi := 0; gi+1 < len(s.keyOff); gi++ {
		seg := s.keys[s.keyOff[gi]:s.keyOff[gi+1]]
		for j := range seg {
			if j == 0 || seg[j] != seg[j-1] {
				groups++
			}
		}
	}
	return len(s.keys), groups
}

// EncodeBatch encodes every graph at full width, returning one packed
// hypervector per graph, bit-identical to Encoder.EncodeGraphPacked. The
// returned slice and its vectors live in the scratch's buffers and are
// valid until the next call on s.
func (s *EncoderScratch) EncodeBatch(graphs []*graph.Graph) []*hdc.Binary {
	s.group(graphs)
	return s.signAll(graphs)
}

// signAll signs every graph of the last grouped batch at full width into
// the scratch's per-graph output buffers. Graphs outside the packed fast
// path take the reference encoder.
func (s *EncoderScratch) signAll(graphs []*graph.Graph) []*hdc.Binary {
	e := s.enc
	for len(s.outs) < len(graphs) {
		s.outs = append(s.outs, hdc.NewBinary(e.cfg.Dimension))
	}
	outs := s.outs[:len(graphs)]
	for gi, g := range graphs {
		if !s.signInto(gi, outs[gi]) {
			outs[gi].CopyFrom(e.encodeGraphSlow(g).PackBinary())
		}
	}
	return outs
}

// prefixOuts returns n reusable d-dimensional sign buffers, one per
// batch graph. Buffers are rebuilt only when the width changes (a hot
// swap to a model with a different cascade prefix).
func (s *EncoderScratch) prefixOuts(d, n int) []*hdc.Binary {
	if s.poutsD != d {
		s.pouts = s.pouts[:0]
		s.poutsD = d
	}
	for len(s.pouts) < n {
		s.pouts = append(s.pouts, hdc.NewBinary(d))
	}
	return s.pouts[:n]
}

// EncodeGraph is Encoder.EncodeGraph writing into the scratch's reusable
// bipolar hypervector on the fast path; the result is valid until the
// next call on s. (The labeled-extension and edgeless fallbacks still
// return a freshly allocated vector — they are off the hot path by
// construction.)
func (s *EncoderScratch) EncodeGraph(g *graph.Graph) *hdc.Bipolar {
	gs := [1]*graph.Graph{g}
	s.group(gs[:])
	if s.accumulate(0) {
		return s.counter.SignBipolarInto(s.enc.tie, s.bipolar)
	}
	return s.enc.encodeGraphSlow(g)
}

// EncodeGraphPacked is Encoder.EncodeGraphPacked writing into a reusable
// packed hypervector of the scratch; the result is valid until the next
// call on s.
func (s *EncoderScratch) EncodeGraphPacked(g *graph.Graph) *hdc.Binary {
	gs := [1]*graph.Graph{g}
	return s.EncodeBatch(gs[:])[0]
}

// EncodeGraphPackedPrefix encodes the first d components of Enc_G(g) —
// bit-identical to EncodeGraphPacked(g).PrefixCopy(d), and therefore to
// the full encoding of a d-dimensional model sharing the basis prefix
// (majority bundling is componentwise) — at ~d/Dimension of the cost:
// the counter is narrowed with SetDim and consumes only the first
// ⌈d/64⌉ words of the full-width basis vectors, tail-masked, through the
// same kernel tiers. This is the stage-1 encode of cascade
// classification. The result lives in the scratch's prefix buffer, valid
// until the next call on s; d must lie in [1, Dimension].
func (s *EncoderScratch) EncodeGraphPackedPrefix(g *graph.Graph, d int) *hdc.Binary {
	e := s.enc
	if d == e.cfg.Dimension {
		return s.EncodeGraphPacked(g)
	}
	if d < 1 || d > e.cfg.Dimension {
		panic(fmt.Sprintf("core: prefix dimension %d outside [1,%d]", d, e.cfg.Dimension))
	}
	gs := [1]*graph.Graph{g}
	s.group(gs[:])
	out := s.prefixOuts(d, 1)[0]
	s.counter.SetDim(d)
	ok := s.signInto(0, out)
	s.counter.SetDim(e.cfg.Dimension)
	if ok {
		return out
	}
	// Reference fallback (labeled extension, edgeless): encode at full
	// width and slice — exact, by the componentwise identity.
	return e.encodeGraphSlow(g).PackBinary().PrefixCopy(d)
}

// encodeBipolarNew encodes graphs into freshly allocated bipolar
// hypervectors, dst[i] for graphs[i] (len(dst) must equal len(graphs)),
// for callers that retain them (training). Ranks and counts live in the
// scratch.
func (s *EncoderScratch) encodeBipolarNew(graphs []*graph.Graph, dst []*hdc.Bipolar) {
	s.group(graphs)
	for gi, g := range graphs {
		if s.accumulate(gi) {
			dst[gi] = s.counter.SignBipolar(s.enc.tie)
		} else {
			dst[gi] = s.enc.encodeGraphSlow(g)
		}
	}
}
