package core

import (
	"slices"

	"graphhd/internal/centrality"
	"graphhd/internal/graph"
	"graphhd/internal/hdc"
)

// EncoderScratch holds every reusable buffer one encoding goroutine needs:
// the centrality scratch (PageRank power-iteration vectors and the rank
// sort order), the rank slice, the rank-pair keys and operand pairs, the
// (rank, label) operand table, the SWAR majority counter, and the packed
// output hypervectors. Once its buffers have grown to the largest batch
// seen, encoding performs zero heap allocations.
//
// Every graph, and every encode path, runs the same two steps over a
// batch of graphs; the per-graph calls are batches of one:
//
//  1. group ranks each graph by centrality and turns its edges into
//     packed (minRank, maxRank) keys, in edge order. An edge's bind
//     vector depends only on the unordered rank pair of its endpoints
//     (XNOR is commutative). graph.Builder drops self-loops and duplicate
//     edges and ranks are a bijection, so a graph's keys are distinct.
//     Under the labeled extension it also records a labeled graph's
//     vertex labels in rank order.
//  2. signInto walks one graph's keys into XNOR operand pairs read
//     straight off its operand table — the shared packed basis, or, for
//     a labeled graph, the (rank, label) vectors it fills in place —
//     feeds them to the blocked carry-save kernels and takes the
//     majority. An edgeless graph bundles the table's first n vectors,
//     its vertex vectors, instead.
//
// Bundling counts are exact integer sums, so operand order cannot
// matter — the keys are never sorted — and every encoding is bit-for-bit
// identical to the per-edge int8 bundle of the paper's formulation (the
// oracle in the package tests).
//
// Obtain one from Encoder.NewScratch, or rely on the Encoder and
// Predictor APIs, which vend pooled scratches per call or per batch
// chunk. A scratch is bound to its encoder and is not safe for concurrent
// use; each goroutine owns its own. Results returned by the scratch's
// methods live in its buffers and are only valid until the next call on
// the same scratch.
type EncoderScratch struct {
	enc   *Encoder
	cent  centrality.Scratch
	ranks []int
	// counter is the SWAR majority counter of signInto; between encodes
	// Model.Fit bundles a chunk's outputs in it. chunk holds the graphs
	// of one Fit chunk while they are encoded.
	counter *hdc.BitCounter
	chunk   [encodeBatchChunk]*graph.Graph

	// Grouping state of the last grouped batch: graph i's keys, in edge
	// order, are keys[keyOff[i]:keyOff[i+1]], and its vertex labels in
	// rank order labels[labelOff[i]:labelOff[i+1]], empty unless the
	// graph is labeled under the labeled extension. basis is the packed
	// basis-table snapshot the other graphs' keys index.
	keys     []uint64
	keyOff   []int
	labels   []int
	labelOff []int
	basis    []*hdc.Binary
	// labelTab is the (rank, label) operand table of one labeled graph
	// at a time; it grows to the largest labeled graph encoded. pairs
	// holds the XNOR operand pairs of one graph at a time.
	labelTab []*hdc.Binary
	pairs    []hdc.XorPair

	// outs holds the per-graph outputs of the batch calls.
	outs []*hdc.Binary
}

// NewScratch returns a fresh scratch bound to e, for callers that manage
// reuse themselves (the serving engine's slots, the benchmark harness).
// Everything else can rely on the pooled scratches behind the Encoder
// and Predictor APIs.
func (e *Encoder) NewScratch() *EncoderScratch {
	return &EncoderScratch{enc: e, counter: hdc.NewBitCounter(e.cfg.Dimension)}
}

// Encoder returns the encoder s is bound to.
func (s *EncoderScratch) Encoder() *Encoder { return s.enc }

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

// group ranks every graph and builds its rank-pair key segment, one key
// per edge in edge order, and, for a labeled graph under the labeled
// extension, its label segment — the "plan" stage of BatchTrace.
func (s *EncoderScratch) group(graphs []*graph.Graph) {
	e := s.enc
	s.keys = s.keys[:0]
	s.keyOff = append(s.keyOff[:0], 0)
	s.labels = s.labels[:0]
	s.labelOff = append(s.labelOff[:0], 0)
	maxN := 0
	for _, g := range graphs {
		ranks := s.Ranks(g)
		for _, ed := range g.Edges() {
			ru, rv := ranks[ed.U], ranks[ed.V]
			if ru > rv {
				ru, rv = rv, ru
			}
			s.keys = append(s.keys, uint64(ru)<<32|uint64(uint32(rv)))
		}
		s.keyOff = append(s.keyOff, len(s.keys))
		if e.labeled(g) {
			off := len(s.labels)
			s.labels = slices.Grow(s.labels, len(ranks))[:off+len(ranks)]
			for v, r := range ranks {
				s.labels[off+r] = g.VertexLabel(v)
			}
		} else {
			maxN = max(maxN, g.NumVertices())
		}
		s.labelOff = append(s.labelOff, len(s.labels))
	}
	s.basis = e.packedSlice(maxN) // one lock round per batch
}

// labelTable fills the scratch's (rank, label) table for one labeled
// graph, given its vertex labels in rank order, and returns it: entry r
// is the packed basis hypervector of rank r and that vertex's label.
func (s *EncoderScratch) labelTable(labels []int) []*hdc.Binary {
	e := s.enc
	for len(s.labelTab) < len(labels) {
		s.labelTab = append(s.labelTab, hdc.NewBinary(e.cfg.Dimension))
	}
	tab := s.labelTab[:len(labels)]
	for r, l := range labels {
		tab[r].FillRandom(hdc.NewRNG(e.rankLabelSeed(r, l)))
	}
	return tab
}

// signInto encodes graph gi of the last grouped batch, g, into dst.
// Bundles of up to hdc.MaxSmallSign pairs — the common serving case —
// take the one-shot bit-sliced majority kernel and skip the counter
// tiers; the rest, and the vertex bundles of edgeless graphs, accumulate
// through the blocked carry-save front end and sign through the counter.
func (s *EncoderScratch) signInto(gi int, g *graph.Graph, dst *hdc.Binary) {
	tab := s.basis
	if lo, hi := s.labelOff[gi], s.labelOff[gi+1]; lo < hi {
		tab = s.labelTable(s.labels[lo:hi])
	}
	tie := s.enc.tie
	seg := s.keys[s.keyOff[gi]:s.keyOff[gi+1]]
	if len(seg) == 0 {
		// Ranks are a bijection onto [0, n), so the vertex vectors are
		// the table's first n entries. The empty graph signs to the tie.
		s.counter.Reset()
		s.counter.AddAll(tab[:g.NumVertices()])
		s.counter.SignBinaryInto(tie, dst)
		return
	}
	pairs := s.pairs[:0]
	for _, k := range seg {
		// XNOR of the packed endpoints is exactly the bipolar product
		// under the bit 1 ↔ +1 mapping.
		pairs = append(pairs, hdc.XorPair{A: tab[k>>32], B: tab[uint32(k)], Invert: true})
	}
	s.pairs = pairs
	if len(pairs) <= hdc.MaxSmallSign {
		s.counter.SignXorPairsSmallInto(pairs, tie, dst)
		return
	}
	s.counter.Reset()
	s.counter.AddXorPairs(pairs)
	s.counter.SignBinaryInto(tie, dst)
}

// PlanStats reports the last grouped batch's edge rank-pair instances
// and the operands the encode accumulated for them. The two are equal:
// a graph's keys are distinct (see EncoderScratch), so every pair is its
// own operand.
func (s *EncoderScratch) PlanStats() (pairs, groups int) {
	return len(s.keys), len(s.keys)
}

// EncodeBatch encodes every graph, returning one packed hypervector per
// graph, bit-identical to Encoder.EncodeGraphPacked. The returned slice
// and its vectors live in the scratch's buffers and are valid until the
// next call on s.
func (s *EncoderScratch) EncodeBatch(graphs []*graph.Graph) []*hdc.Binary {
	s.group(graphs)
	return s.signAll(graphs)
}

// signAll signs every graph of the last grouped batch into the
// scratch's per-graph output buffers.
func (s *EncoderScratch) signAll(graphs []*graph.Graph) []*hdc.Binary {
	for len(s.outs) < len(graphs) {
		s.outs = append(s.outs, hdc.NewBinary(s.enc.cfg.Dimension))
	}
	outs := s.outs[:len(graphs)]
	for gi, g := range graphs {
		s.signInto(gi, g, outs[gi])
	}
	return outs
}

// EncodeGraphPacked is Encoder.EncodeGraphPacked writing into a reusable
// packed hypervector of the scratch; the result is valid until the next
// call on s.
func (s *EncoderScratch) EncodeGraphPacked(g *graph.Graph) *hdc.Binary {
	gs := [1]*graph.Graph{g}
	return s.EncodeBatch(gs[:])[0]
}
