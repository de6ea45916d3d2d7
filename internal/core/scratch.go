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
// sort keys), the rank slice, the rank-pair keys, the (rank, label) slab,
// the SWAR majority counter, and the packed output hypervectors. Once its
// buffers have grown to the largest batch seen, encoding performs zero
// heap allocations.
//
// Every graph, and every encode path, runs the same two steps over a
// batch of graphs; the per-graph calls are batches of one:
//
//  1. group ranks each graph by centrality and turns its edges into
//     hdc keys, in edge order: the word offsets of the two endpoint
//     ranks' rows, rank·stride. An edge's bind vector depends only on the
//     unordered rank pair of its endpoints (XNOR is commutative).
//     graph.Builder drops self-loops and duplicate edges and ranks are a
//     bijection, so a graph's keys are distinct. Under the labeled
//     extension it also records a labeled graph's vertex labels in rank
//     order.
//  2. signInto hands one graph's keys, as they are, to the kernels,
//     which read the rows straight off its slab — the shared basis slab,
//     or, for a labeled graph, the (rank, label) slab it fills in place,
//     whose rows sit at the same offsets — and takes the majority of the
//     XNORs. An edgeless graph bundles the slab's first n rows, its
//     vertex vectors, instead.
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
	// graph is labeled under the labeled extension. basis is the basis
	// slab snapshot the other graphs' keys index.
	keys     []uint64
	keyOff   []int
	labels   []int
	labelOff []int
	basis    []uint64
	// labelSlab holds the (rank, label) rows of one labeled graph at a
	// time, in the basis slab's shape, its zero row last; it grows to the
	// largest labeled graph encoded. bundle holds the keys of one bundle
	// of whole rows: an edgeless graph's vertices, or a Fit chunk's
	// encodings.
	labelSlab []uint64
	bundle    []uint64

	// outs holds the per-graph outputs of the batch calls: views of the
	// rows of outSlab, whose zero row is last.
	outSlab []uint64
	outs    []*hdc.Binary
}

// NewScratch returns a fresh scratch bound to e, for callers that manage
// reuse themselves (the benchmark harness). Everything else, the serving
// engine included, can rely on the pooled scratches behind the Encoder
// and Predictor APIs.
func (e *Encoder) NewScratch() *EncoderScratch {
	return &EncoderScratch{enc: e, counter: hdc.NewBitCounter(e.cfg.Dimension)}
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

// group ranks every graph and builds its rank-pair key segment, one key
// per edge in edge order, and, for a labeled graph under the labeled
// extension, its label segment — the "plan" stage of BatchTrace.
func (s *EncoderScratch) group(graphs []*graph.Graph) {
	e := s.enc
	st := e.stride
	s.keys = s.keys[:0]
	s.keyOff = append(s.keyOff[:0], 0)
	s.labels = s.labels[:0]
	s.labelOff = append(s.labelOff[:0], 0)
	maxN := 0
	for _, g := range graphs {
		if n := g.NumVertices(); uint64(n+1)*uint64(st) > 1<<32 { // keys hold 32-bit offsets
			panic(fmt.Sprintf("core: %d vertices overflow the row offsets of a %d-word stride", n, st))
		}
		ranks := s.Ranks(g)
		for _, ed := range g.Edges() {
			ru, rv := ranks[ed.U], ranks[ed.V]
			if ru > rv {
				ru, rv = rv, ru
			}
			s.keys = append(s.keys, hdc.Key(ru*st, rv*st))
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
	s.basis = e.basisFor(maxN) // one load per batch
}

// labelTable fills the scratch's (rank, label) slab for one labeled
// graph, given its vertex labels in rank order, and returns it: row r is
// the packed basis hypervector of rank r and that vertex's label.
func (s *EncoderScratch) labelTable(labels []int) []uint64 {
	e := s.enc
	st := e.stride
	if len(s.labelSlab) <= len(labels)*st {
		s.labelSlab = make([]uint64, (len(labels)+1)*st)
	}
	for r, l := range labels {
		hdc.FillRandomRow(s.labelSlab[r*st:], e.cfg.Dimension, hdc.NewRNG(e.rankLabelSeed(r, l)))
	}
	return s.labelSlab
}

// bundleRows resets the counter and adds the first n rows of slab to it,
// each keyed against the slab's last row, which is zero.
func (s *EncoderScratch) bundleRows(slab []uint64, n int) {
	st := s.enc.stride
	zero := len(slab) - st
	s.bundle = slices.Grow(s.bundle[:0], n)[:n]
	for r := range s.bundle {
		s.bundle[r] = hdc.Key(r*st, zero)
	}
	s.counter.Reset()
	s.counter.AddXorKeys(slab, s.bundle)
}

// signInto encodes graph gi of the last grouped batch, g, into dst.
// Bundles of up to hdc.MaxSmallSign edges — the common serving case —
// take the one-shot bit-sliced majority kernel and skip the counter
// tiers; the rest accumulate through the blocked carry-save front end
// and sign through the counter, as do the vertex bundles of edgeless
// graphs.
func (s *EncoderScratch) signInto(gi int, g *graph.Graph, dst *hdc.Binary) {
	slab := s.basis
	if lo, hi := s.labelOff[gi], s.labelOff[gi+1]; lo < hi {
		slab = s.labelTable(s.labels[lo:hi])
	}
	tie := s.enc.tie
	// XNOR of the packed endpoints is exactly the bipolar product under
	// the bit 1 ↔ +1 mapping; the kernels count the XORs and complement.
	switch seg := s.keys[s.keyOff[gi]:s.keyOff[gi+1]]; {
	case len(seg) == 0:
		// Ranks are a bijection onto [0, n), so the vertex vectors are
		// the slab's first n rows. The empty graph signs to the tie.
		s.bundleRows(slab, g.NumVertices())
		s.counter.SignBinaryInto(tie, dst)
	case len(seg) <= hdc.MaxSmallSign:
		s.counter.SignXnorKeysSmallInto(slab, seg, tie, dst)
	default:
		s.counter.Reset()
		s.counter.AddXorKeys(slab, seg)
		s.counter.SignXnorInto(tie, dst)
	}
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
	if len(s.outs) < len(graphs) {
		s.outSlab = make([]uint64, (len(graphs)+1)*s.enc.stride)
		s.outs = hdc.BinaryRows(s.enc.cfg.Dimension, s.outSlab, len(graphs))
	}
	outs := s.outs[:len(graphs)]
	for gi, g := range graphs {
		s.signInto(gi, g, outs[gi])
	}
	// An idle scratch must not pin a basis version that growth replaced.
	s.basis = nil
	return outs
}

// EncodeGraphPacked is Encoder.EncodeGraphPacked writing into a reusable
// packed hypervector of the scratch; the result is valid until the next
// call on s.
func (s *EncoderScratch) EncodeGraphPacked(g *graph.Graph) *hdc.Binary {
	gs := [1]*graph.Graph{g}
	return s.EncodeBatch(gs[:])[0]
}
