package core

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"graphhd/internal/dataset"
	"graphhd/internal/graph"
	"graphhd/internal/hdc"
)

// The int8 reference encoder is the oracle every packed encoding is
// checked against: the paper's Enc_G on bipolar hypervectors, one
// materialized bind per edge (or, for an edgeless graph, one vertex
// vector per vertex) bundled in an int32 accumulator and signed against
// the int8 tie. It rebuilds the encoder's seeds from Config.Seed, and it
// draws the rank basis as the item memory's sequential stream —
// RandomBipolar calls in order on one generator — not through
// ItemMemory.PackedVector's indexing.

// refSeeds returns the rank-basis, label and tie seeds NewEncoder draws
// from cfg.Seed.
func refSeeds(cfg Config) (rank, label, tie uint64) {
	seeds := hdc.NewRNG(cfg.Seed)
	return seeds.Uint64(), seeds.Uint64(), seeds.Uint64()
}

// refBasis holds the int8 rank basis per (rank seed, dimension), shared
// by every test and grown in stream order under mu.
var refBasis struct {
	mu     sync.Mutex
	tables map[[2]uint64]*refTable
}

type refTable struct {
	rng  *hdc.RNG
	vecs []*hdc.Bipolar
}

// refRankVectors returns the int8 basis vectors of ranks [0, n).
func refRankVectors(cfg Config, n int) []*hdc.Bipolar {
	rankSeed, _, _ := refSeeds(cfg)
	key := [2]uint64{rankSeed, uint64(cfg.Dimension)}
	refBasis.mu.Lock()
	defer refBasis.mu.Unlock()
	if refBasis.tables == nil {
		refBasis.tables = make(map[[2]uint64]*refTable)
	}
	tab := refBasis.tables[key]
	if tab == nil {
		tab = &refTable{rng: hdc.NewRNG(rankSeed)}
		refBasis.tables[key] = tab
	}
	for len(tab.vecs) < n {
		tab.vecs = append(tab.vecs, hdc.RandomBipolar(cfg.Dimension, tab.rng))
	}
	return tab.vecs[:n]
}

// refTie returns the encoder's tie-break vector in int8 form.
func refTie(cfg Config) *hdc.Bipolar {
	_, _, tieSeed := refSeeds(cfg)
	return hdc.RandomBipolar(cfg.Dimension, hdc.NewRNG(tieSeed))
}

// rankLabelVector returns the int8 basis vector of a (rank, label) pair
// under the labeled extension.
func (e *Encoder) rankLabelVector(rank, label int) *hdc.Bipolar {
	return hdc.RandomBipolar(e.cfg.Dimension, hdc.NewRNG(e.rankLabelSeed(rank, label)))
}

// vertexVectors returns the int8 Enc_v of every vertex of g: the basis
// vector of its centrality rank, or, under the labeled extension on a
// labeled graph, of its (rank, label) pair.
func (e *Encoder) vertexVectors(g *graph.Graph) []*hdc.Bipolar {
	ranks := e.Ranks(g)
	basis := refRankVectors(e.cfg, len(ranks))
	out := make([]*hdc.Bipolar, len(ranks))
	for v, r := range ranks {
		if e.cfg.UseVertexLabels && g.Labeled() {
			out[v] = e.rankLabelVector(r, g.VertexLabel(v))
		} else {
			out[v] = basis[r]
		}
	}
	return out
}

// encodeGraphSlow is the int8 reference encoding of g.
func (e *Encoder) encodeGraphSlow(g *graph.Graph) *hdc.Bipolar {
	vvecs := e.vertexVectors(g)
	tie := refTie(e.cfg)
	if len(vvecs) == 0 {
		return tie
	}
	acc := hdc.NewAccumulator(e.cfg.Dimension)
	if edges := g.Edges(); len(edges) > 0 {
		for _, ed := range edges {
			acc.Add(vvecs[ed.U].Bind(vvecs[ed.V]))
		}
	} else {
		for _, hv := range vvecs {
			acc.Add(hv)
		}
	}
	return acc.Sign(tie)
}

// refTrainer is the int8 reference trainer the packed training path must
// reproduce exactly: encodeGraphSlow encodings bundled into int32
// accumulators with Accumulator.Add/Sub, queried with CosineToSums (or, in
// bipolar mode, the bipolar cosine against Sign), one sample at a time.
type refTrainer struct {
	enc     *Encoder
	accs    []*hdc.Accumulator
	tie     *hdc.Bipolar
	bipolar bool
	updates uint64 // corrective online updates
}

func newRefTrainer(enc *Encoder, k int) *refTrainer {
	cfg := enc.Config()
	// NewModel's tie-break seed, regenerated independently.
	tieSeed := hdc.NewRNG(cfg.Seed ^ 0x5eed).Uint64()
	r := &refTrainer{
		enc:     enc,
		tie:     hdc.RandomBipolar(cfg.Dimension, hdc.NewRNG(tieSeed)),
		bipolar: cfg.BipolarClassVectors,
	}
	for range k {
		r.accs = append(r.accs, hdc.NewAccumulator(cfg.Dimension))
	}
	return r
}

func (r *refTrainer) similarities(hv *hdc.Bipolar) []float64 {
	sims := make([]float64, len(r.accs))
	for c, acc := range r.accs {
		if r.bipolar {
			sims[c] = hv.Cosine(acc.Sign(r.tie))
		} else {
			sims[c] = acc.CosineToSums(hv)
		}
	}
	return sims
}

func (r *refTrainer) classify(hv *hdc.Bipolar) int {
	sims := r.similarities(hv)
	best := 0
	for c := range sims {
		if sims[c] > sims[best] {
			best = c
		}
	}
	return best
}

func (r *refTrainer) fit(graphs []*graph.Graph, labels []int) {
	for i, g := range graphs {
		r.accs[labels[i]].Add(r.enc.encodeGraphSlow(g))
	}
}

// update is the perceptron step: on a misprediction, add to the true
// class and subtract from the predicted one.
func (r *refTrainer) update(hv *hdc.Bipolar, label int) bool {
	pred := r.classify(hv)
	if pred == label {
		return false
	}
	r.accs[label].Add(hv)
	r.accs[pred].Sub(hv)
	r.updates++
	return true
}

func (r *refTrainer) retrain(graphs []*graph.Graph, labels []int, opts RetrainOptions) []int {
	encoded := make([]*hdc.Bipolar, len(graphs))
	for i, g := range graphs {
		encoded[i] = r.enc.encodeGraphSlow(g)
	}
	order := make([]int, len(graphs))
	for i := range order {
		order[i] = i
	}
	var rng *hdc.RNG
	if opts.ShuffleSeed != nil {
		rng = hdc.NewRNG(*opts.ShuffleSeed)
	}
	var updates []int
	for ep := 0; ep < opts.Epochs; ep++ {
		if rng != nil {
			copy(order, rng.Perm(len(order)))
		}
		n := 0
		for _, i := range order {
			if r.update(encoded[i], labels[i]) {
				n++
			}
		}
		updates = append(updates, n)
		if n == 0 {
			break
		}
	}
	return updates
}

// sameSums reports how m's class accumulators differ from r's, or "".
func sameSums(m *Model, r *refTrainer) string {
	for c, ref := range r.accs {
		acc := m.am.ClassAccumulator(c)
		if acc.Count() != ref.Count() {
			return fmt.Sprintf("class %d count %d, reference %d", c, acc.Count(), ref.Count())
		}
		if !slices.Equal(acc.Sums(), ref.Sums()) {
			return fmt.Sprintf("class %d sums differ from the reference", c)
		}
	}
	return ""
}

// oracleGraphs is a dataset's graphs with labeled and edgeless graphs
// mixed in, and k classes' labels.
func oracleGraphs(t *testing.T, name string) ([]*graph.Graph, []int, int) {
	t.Helper()
	count := 36
	if name == "DD" { // DD graphs are ~25× larger than the rest
		count = 8
	}
	ds, err := dataset.Generate(name, dataset.Options{Seed: 7, GraphCount: count})
	if err != nil {
		t.Fatal(err)
	}
	graphs, labels := slices.Clone(ds.Graphs), slices.Clone(ds.Labels)
	k := ds.NumClasses()
	for i, g := range ds.Graphs[:6] {
		graphs = append(graphs, labeledCopy(t, g, i), edgelessGraph(t, i+1))
		labels = append(labels, (ds.Labels[i]+1)%k, i%k)
	}
	graphs = append(graphs, edgelessGraph(t, 0))
	labels = append(labels, 0)
	return graphs, labels, k
}

// slabRow returns row r of a slab of the encoder's shape as a Binary.
func (e *Encoder) slabRow(slab []uint64, r int) *hdc.Binary {
	return hdc.BinaryRows(e.cfg.Dimension, slab[r*e.stride:], 1)[0]
}

// basisRanks returns how many ranks the basis slab covers.
func (e *Encoder) basisRanks() int { return len(*e.basis.Load())/e.stride - 1 }

// labeledCopy returns g with vertex v labeled (v+shift) mod 3, which
// encodes through the (rank, label) basis under UseVertexLabels.
func labeledCopy(t testing.TB, g *graph.Graph, shift int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(g.NumVertices())
	for _, e := range g.Edges() {
		b.MustAddEdge(int(e.U), int(e.V))
	}
	vl := make([]int, g.NumVertices())
	for v := range vl {
		vl[v] = (v + shift) % 3
	}
	if err := b.SetVertexLabels(vl); err != nil {
		t.Fatal(err)
	}
	return b.Build()
}

// edgelessGraph returns n isolated vertices; n = 0 is the empty graph.
func edgelessGraph(t testing.TB, n int) *graph.Graph {
	t.Helper()
	g, err := graph.FromEdges(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// withOddShapes returns graphs followed by a labeled copy of its first
// graph, a labeled edgeless graph, an edgeless graph and the empty graph.
func withOddShapes(t testing.TB, graphs []*graph.Graph) []*graph.Graph {
	t.Helper()
	return append(slices.Clone(graphs), labeledCopy(t, graphs[0], 1),
		labeledCopy(t, edgelessGraph(t, 4), 2), edgelessGraph(t, 5), edgelessGraph(t, 0))
}

// TestPackedTrainingMatchesInt8Oracle pins every training and query entry
// point of Model and MultiPrototypeModel against the int8 reference
// trainer on all six datasets, in both class-vector modes, with and
// without the labeled extension.
func TestPackedTrainingMatchesInt8Oracle(t *testing.T) {
	for _, name := range dataset.Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			graphs, labels, k := oracleGraphs(t, name)
			for _, bipolar := range []bool{false, true} {
				for _, useLabels := range []bool{false, true} {
					cfg := testConfig()
					cfg.Dimension = 1000 // not a multiple of 64: exercises the tail word
					cfg.BipolarClassVectors = bipolar
					cfg.UseVertexLabels = useLabels
					checkOracle(t, fmt.Sprintf("bipolar=%v labels=%v", bipolar, useLabels), cfg, graphs, labels, k)
				}
			}
		})
	}
}

func checkOracle(t *testing.T, mode string, cfg Config, graphs []*graph.Graph, labels []int, k int) {
	t.Helper()
	enc := MustNewEncoder(cfg)
	slow := make([]*hdc.Bipolar, len(graphs))
	for i, g := range graphs {
		slow[i] = enc.encodeGraphSlow(g)
	}

	// Fit on top of earlier Learn calls.
	m, err := NewModel(enc, k)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefTrainer(enc, k)
	const learned = 5
	for i := range learned {
		hv, err := m.Learn(graphs[i], labels[i])
		if err != nil {
			t.Fatal(err)
		}
		if !hv.Equal(slow[i].PackBinary()) {
			t.Fatalf("%s: Learn returned a different encoding of graph %d", mode, i)
		}
	}
	ref.fit(graphs[:learned], labels[:learned])
	if err := m.Fit(graphs[learned:], labels[learned:]); err != nil {
		t.Fatal(err)
	}
	ref.fit(graphs[learned:], labels[learned:])
	if d := sameSums(m, ref); d != "" {
		t.Fatalf("%s: after Learn + Fit: %s", mode, d)
	}
	checkQueries(t, mode+" after Fit", m, ref, graphs, slow)

	// 200 online updates, a third of them with a flipped label.
	for i := range 200 {
		g, label := graphs[i%len(graphs)], labels[i%len(graphs)]
		if i%3 == 0 {
			label = (label + 1) % k
		}
		up, err := m.OnlineUpdate(g, label)
		if err != nil {
			t.Fatal(err)
		}
		if want := ref.update(slow[i%len(graphs)], label); up != want {
			t.Fatalf("%s: online update %d reported %v, reference %v", mode, i, up, want)
		}
	}
	if d := sameSums(m, ref); d != "" {
		t.Fatalf("%s: after online updates: %s", mode, d)
	}
	if m.Revision() != learned+ref.updates {
		t.Fatalf("%s: revision %d, want %d", mode, m.Revision(), learned+ref.updates)
	}
	checkQueries(t, mode+" after online updates", m, ref, graphs, slow)

	// Retrain, in input order and shuffled.
	seed := uint64(3)
	for _, shuffle := range []*uint64{nil, &seed} {
		m, err := NewModel(enc, k)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Fit(graphs, labels); err != nil {
			t.Fatal(err)
		}
		ref := newRefTrainer(enc, k)
		ref.fit(graphs, labels)
		opts := RetrainOptions{Epochs: 3, ShuffleSeed: shuffle}
		got, err := m.Retrain(graphs, labels, opts)
		if err != nil {
			t.Fatal(err)
		}
		if want := ref.retrain(graphs, labels, opts); !slices.Equal(got, want) {
			t.Fatalf("%s shuffle=%v: retrain updates %v, reference %v", mode, shuffle != nil, got, want)
		}
		if d := sameSums(m, ref); d != "" {
			t.Fatalf("%s shuffle=%v: after Retrain: %s", mode, shuffle != nil, d)
		}
	}

	// The multi-prototype extension against the same int8 steps.
	mp, err := NewMultiPrototypeModel(enc, k, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := mp.Fit(graphs, labels); err != nil {
		t.Fatal(err)
	}
	protos := make([][]*hdc.Accumulator, k)
	for i, hv := range slow {
		ps := protos[labels[i]]
		if len(ps) < 3 {
			acc := hdc.NewAccumulator(cfg.Dimension)
			acc.Add(hv)
			protos[labels[i]] = append(ps, acc)
			continue
		}
		best := 0
		for j := range ps {
			if ps[j].CosineToSums(hv) > ps[best].CosineToSums(hv) {
				best = j
			}
		}
		ps[best].Add(hv)
	}
	for c := range protos {
		if len(mp.accs[c]) != len(protos[c]) {
			t.Fatalf("%s: class %d has %d prototypes, reference %d", mode, c, len(mp.accs[c]), len(protos[c]))
		}
		for j, acc := range mp.accs[c] {
			if acc.Count() != protos[c][j].Count() || !slices.Equal(acc.Sums(), protos[c][j].Sums()) {
				t.Fatalf("%s: class %d prototype %d differs from the reference", mode, c, j)
			}
		}
	}
	for i, g := range graphs {
		best, bestSim := 0, -2.0
		for c, ps := range protos {
			for _, p := range ps {
				if s := p.CosineToSums(slow[i]); s > bestSim {
					best, bestSim = c, s
				}
			}
		}
		if got := mp.Predict(g); got != best {
			t.Fatalf("%s: multi-prototype predicts %d for graph %d, reference %d", mode, got, i, best)
		}
	}
}

// checkQueries compares Similarities (float64 ==), Predict, PredictAll,
// PredictEncoded and the Snapshot's class words with the reference.
func checkQueries(t *testing.T, mode string, m *Model, ref *refTrainer, graphs []*graph.Graph, slow []*hdc.Bipolar) {
	t.Helper()
	all := m.PredictAll(graphs)
	for i, g := range graphs {
		want := ref.similarities(slow[i])
		if got := m.Similarities(g); !slices.Equal(got, want) {
			t.Fatalf("%s: graph %d similarities %v, reference %v", mode, i, got, want)
		}
		wantC := ref.classify(slow[i])
		if p, pe := m.Predict(g), m.PredictEncoded(slow[i]); p != wantC || pe != wantC || all[i] != wantC {
			t.Fatalf("%s: graph %d Predict %d, PredictEncoded %d, PredictAll %d; reference %d", mode, i, p, pe, all[i], wantC)
		}
	}
	p := m.Snapshot()
	for c, acc := range ref.accs {
		if want := acc.Sign(ref.tie).PackBinary(); !p.ClassVector(c).Equal(want) {
			t.Fatalf("%s: snapshot class %d words differ from the reference", mode, c)
		}
		if !m.ClassVector(c).Equal(acc.Sign(ref.tie)) {
			t.Fatalf("%s: class vector %d differs from the reference", mode, c)
		}
	}
}

// TestPackedBasisMatchesInt8Table checks the encoder's packed rank basis,
// generated by index and grown in two steps, against the reference's
// int8 table, drawn in stream order, word for word.
func TestPackedBasisMatchesInt8Table(t *testing.T) {
	for _, d := range []int{100, 1000, 10000, 10007} {
		cfg := testConfig()
		cfg.Dimension = d
		enc := MustNewEncoder(cfg)
		enc.basisFor(17)
		packed := enc.basisFor(50)
		for r, want := range refRankVectors(cfg, 50) {
			if !enc.slabRow(packed, r).Equal(want.PackBinary()) {
				t.Fatalf("d=%d: rank %d packed basis differs from the int8 table", d, r)
			}
		}
	}
}

// TestModelConcurrentColdQueries runs Predict, Similarities and
// PredictAll from four goroutines on an int32-mode model whose query
// snapshot an update has just dropped; run it under -race. Every answer
// must equal a twin model's.
func TestModelConcurrentColdQueries(t *testing.T) {
	gs, ys := twoClassDataset(24, 81)
	build := func() *Model {
		m, err := Train(testConfig(), gs, ys)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.OnlineUpdate(gs[0], 1-m.Predict(gs[0])); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Learn(gs[1], ys[1]); err != nil { // leaves the snapshot cold
			t.Fatal(err)
		}
		return m
	}
	m, twin := build(), build()
	wantAll := twin.PredictAll(gs)
	wantSims := make([][]float64, len(gs))
	for i, g := range gs {
		wantSims[i] = twin.Similarities(g)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := m.PredictAll(gs); !slices.Equal(got, wantAll) {
				errs <- fmt.Sprintf("worker %d: PredictAll differs", w)
				return
			}
			for i, g := range gs {
				if m.Predict(g) != wantAll[i] || !slices.Equal(m.Similarities(g), wantSims[i]) {
					errs <- fmt.Sprintf("worker %d: graph %d query differs", w, i)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestOnlineUpdateAllocationFree: a warmed OnlineUpdate on unlabeled
// graphs allocates nothing, whether or not it corrects the model.
func TestOnlineUpdateAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under the race detector, so the pooled path allocates")
	}
	for _, bipolar := range []bool{false, true} {
		cfg := testConfig()
		cfg.BipolarClassVectors = bipolar
		gs, ys := twoClassDataset(12, 82)
		m, err := Train(cfg, gs, ys)
		if err != nil {
			t.Fatal(err)
		}
		// Warm the scratch pool and both query snapshots' spare storage.
		for _, g := range gs {
			m.OnlineUpdate(g, 0)
			m.OnlineUpdate(g, 1)
		}
		// Labels the model already predicts leave it unchanged.
		preds := m.PredictAll(gs)
		i, kept := 0, 0
		keptAllocs := testing.AllocsPerRun(100, func() {
			if up, _ := m.OnlineUpdate(gs[i%len(gs)], preds[i%len(gs)]); !up {
				kept++
			}
			i++
		})
		// Alternating labels on one graph: at least one of each pair of
		// calls corrects the model.
		corrective := 0
		allocs := testing.AllocsPerRun(100, func() {
			if up, _ := m.OnlineUpdate(gs[0], i%2); up {
				corrective++
			}
			i++
		})
		if kept != 101 || corrective < 50 {
			t.Fatalf("bipolar=%v: %d of 101 calls kept the model, %d of 101 corrected it", bipolar, kept, corrective)
		}
		if keptAllocs != 0 {
			t.Fatalf("bipolar=%v: non-corrective OnlineUpdate allocated %v times per run, want 0", bipolar, keptAllocs)
		}
		if allocs != 0 {
			t.Fatalf("bipolar=%v: corrective OnlineUpdate allocated %v times per run, want 0", bipolar, allocs)
		}
	}
}

// TestFitAllocationBound: Fit on NCI1 at paper scale (4,110 graphs,
// d = 10,000) allocates at most 2 KB per graph, by TotalAlloc, and grows
// the packed basis only to the largest graph.
func TestFitAllocationBound(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under the race detector, so every chunk allocates a scratch")
	}
	if testing.Short() {
		t.Skip("paper-scale dataset")
	}
	ds, err := dataset.Generate("NCI1", dataset.Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	enc := MustNewEncoder(freshConfig(DefaultConfig())) // a basis of its own
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m, err := NewModel(enc, ds.NumClasses())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Fit(ds.Graphs, ds.Labels); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	maxN := 0
	for _, g := range ds.Graphs {
		maxN = max(maxN, g.NumVertices())
	}
	if n := enc.basisRanks(); n != maxN {
		t.Fatalf("Fit built %d packed basis vectors, want %d", n, maxN)
	}
	perGraph := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(ds.Graphs))
	t.Logf("Fit allocated %.0f B per graph over %d graphs", perGraph, len(ds.Graphs))
	if perGraph > 2048 {
		t.Fatalf("Fit allocated %.0f B per graph, want at most 2048", perGraph)
	}
}
