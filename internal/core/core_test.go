package core

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"graphhd/internal/centrality"
	"graphhd/internal/graph"
	"graphhd/internal/hdc"
)

// testConfig keeps dimensions small enough for fast tests while staying in
// the concentration regime where HDC similarity statistics hold.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Dimension = 2048
	return cfg
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Dimension: 0, PageRankIterations: 10, PageRankDamping: 0.85},
		{Dimension: 100, PageRankIterations: 0, PageRankDamping: 0.85},
		{Dimension: 100, PageRankIterations: 10, PageRankDamping: 1.0},
		{Dimension: 100, PageRankIterations: 10, PageRankDamping: -0.1},
		{Dimension: 100, PageRankIterations: 10, PageRankDamping: 0}, // would rank at DefaultDamping
		{Dimension: 100, PageRankIterations: 10, PageRankDamping: math.NaN()},
		{Dimension: 100, PageRankIterations: 10, PageRankDamping: 0.85, Centrality: centrality.Closeness + 1}, // would rank with PageRank
		{Dimension: 100, PageRankIterations: 10, PageRankDamping: 0.85, Centrality: 9},
		{Dimension: 100, PageRankIterations: 10, PageRankDamping: 0.85, Centrality: -1},
	}
	for i, cfg := range bad {
		if _, err := NewEncoder(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	for _, m := range centrality.AllMetrics() {
		cfg := DefaultConfig()
		cfg.Centrality = m
		if _, err := NewEncoder(cfg); err != nil {
			t.Fatalf("%v: %v", m, err)
		}
	}
}

func TestMustNewEncoderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustNewEncoder(Config{})
}

func TestFastEncodeMatchesReference(t *testing.T) {
	// The bit-sliced fast path must be bit-for-bit identical to the int8
	// reference pipeline, including bundle ties (even edge counts).
	enc := MustNewEncoder(testConfig())
	f := func(seed uint64) bool {
		rng := hdc.NewRNG(seed)
		g := graph.ErdosRenyi(10+rng.Intn(20), 0.2, rng)
		return enc.EncodeGraph(g).Equal(enc.encodeGraphSlow(g))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
	// Structured graphs with heavy rank ties too.
	for _, g := range []*graph.Graph{graph.Ring(12), graph.Star(9), graph.Complete(6), graph.Grid(3, 4)} {
		if !enc.EncodeGraph(g).Equal(enc.encodeGraphSlow(g)) {
			t.Fatalf("fast/slow mismatch on %v", g)
		}
	}
}

func TestFastEncodeConcurrentSafe(t *testing.T) {
	// A fresh encoder (equal configs share one, so it has its own seed)
	// grows its basis under concurrent encodes; the results must match
	// the int8 reference, which reads no packed basis.
	enc := MustNewEncoder(freshConfig(testConfig()))
	gs := make([]*graph.Graph, 32)
	rng := hdc.NewRNG(99)
	for i := range gs {
		gs[i] = graph.ErdosRenyi(30, 0.2, rng)
	}
	want := make([]*hdc.Bipolar, len(gs))
	for i, g := range gs {
		want[i] = enc.encodeGraphSlow(g)
	}
	got := make([]*hdc.Bipolar, len(gs))
	done := make(chan int)
	for w := 0; w < 8; w++ {
		go func(w int) {
			for i := w; i < len(gs); i += 8 {
				got[i] = enc.EncodeGraph(gs[i])
			}
			done <- 1
		}(w)
	}
	for w := 0; w < 8; w++ {
		<-done
	}
	for i := range gs {
		if !got[i].Equal(want[i]) {
			t.Fatalf("concurrent encode differs at %d", i)
		}
	}
}

func TestEncodeDeterministic(t *testing.T) {
	g := graph.ErdosRenyi(20, 0.2, hdc.NewRNG(1))
	e1 := MustNewEncoder(testConfig())
	e2 := MustNewEncoder(testConfig())
	if !e1.EncodeGraph(g).Equal(e2.EncodeGraph(g)) {
		t.Fatal("same config+graph encoded differently")
	}
}

func TestEncodeIsomorphismInvariance(t *testing.T) {
	// GraphHD encodes only topology, so relabeling vertices must give an
	// extremely similar hypervector (identical when PageRank ranks have no
	// ties; near-identical otherwise). The seeds are fixed rather than
	// drawn through quick.Check: rank tie-breaks depend on vertex ids, so
	// the cosine after relabeling is a statistical quantity (rarely dipping
	// below 0.8 on tie-heavy draws) and time-seeded sampling made this test
	// flake roughly once per ten runs.
	enc := MustNewEncoder(testConfig())
	for seed := uint64(1); seed <= 40; seed++ {
		rng := hdc.NewRNG(seed)
		g := graph.BarabasiAlbert(15, 2, rng)
		perm := rng.Perm(g.NumVertices())
		h := graph.Relabel(g, perm)
		if c := enc.EncodeGraph(g).Cosine(enc.EncodeGraph(h)); c <= 0.8 {
			t.Fatalf("seed %d: cosine after relabeling = %f", seed, c)
		}
	}
}

func TestEncodeDistinctGraphsDissimilar(t *testing.T) {
	enc := MustNewEncoder(testConfig())
	rng := hdc.NewRNG(2)
	a := enc.EncodeGraph(graph.ErdosRenyi(30, 0.2, rng))
	b := enc.EncodeGraph(graph.BarabasiAlbert(30, 3, rng))
	if c := a.Cosine(b); c > 0.5 {
		t.Fatalf("unrelated graphs too similar: cos = %f", c)
	}
}

func TestEncodeEdgelessGraph(t *testing.T) {
	enc := MustNewEncoder(testConfig())
	g := graph.NewBuilder(5).Build()
	hv := enc.EncodeGraph(g)
	if hv.Dim() != enc.Dimension() {
		t.Fatal("bad dimension")
	}
}

func TestEncodeEmptyGraph(t *testing.T) {
	enc := MustNewEncoder(testConfig())
	g := graph.NewBuilder(0).Build()
	hv := enc.EncodeGraph(g)
	if !hv.Equal(refTie(enc.Config())) {
		t.Fatal("empty graph should encode to the tie vector")
	}
}

// TestEncodeEdgeBindsEndpoints: a graph of one edge encodes to the bind
// of its endpoints' basis vectors (a bundle of one is its operand).
func TestEncodeEdgeBindsEndpoints(t *testing.T) {
	enc := MustNewEncoder(testConfig())
	g := graph.Path(2)
	basis := refRankVectors(enc.Config(), 2)
	edge := basis[0].Bind(basis[1])
	if !enc.EncodeGraph(g).Equal(edge) {
		t.Fatal("a one-edge graph does not encode to the bind of its endpoint vectors")
	}
	// Edge hypervectors are quasi-orthogonal to the endpoints.
	if c := math.Abs(edge.Cosine(basis[0])); c > 0.1 {
		t.Fatalf("edge vs endpoint cosine = %f", c)
	}
}

// TestVertexVectorsShareBasisByRank: two star graphs of the same size
// whose hubs have different vertex ids both rank the hub 0, so they bind
// the same basis vectors and encode identically.
func TestVertexVectorsShareBasisByRank(t *testing.T) {
	enc := MustNewEncoder(testConfig())
	a := graph.Star(6)
	b := graph.Relabel(graph.Star(6), []int{5, 0, 1, 2, 3, 4})
	if ra, rb := enc.Ranks(a), enc.Ranks(b); ra[0] != 0 || rb[5] != 0 {
		t.Fatalf("hub ranks %d and %d, want 0", ra[0], rb[5])
	}
	if !enc.EncodeGraph(a).Equal(enc.EncodeGraph(b)) {
		t.Fatal("stars with equally ranked hubs encode differently")
	}
	if !enc.EncodeGraph(a).Equal(enc.encodeGraphSlow(a)) {
		t.Fatal("star encoding differs from the int8 reference")
	}
}

func TestLabeledExtensionChangesEncoding(t *testing.T) {
	cfg := testConfig()
	cfg.UseVertexLabels = true
	enc := MustNewEncoder(cfg)
	b1 := graph.NewBuilder(3)
	b1.MustAddEdge(0, 1)
	b1.MustAddEdge(1, 2)
	if err := b1.SetVertexLabels([]int{0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	g1 := b1.Build()
	b2 := graph.NewBuilder(3)
	b2.MustAddEdge(0, 1)
	b2.MustAddEdge(1, 2)
	if err := b2.SetVertexLabels([]int{1, 1, 1}); err != nil {
		t.Fatal(err)
	}
	g2 := b2.Build()
	if c := enc.EncodeGraph(g1).Cosine(enc.EncodeGraph(g2)); c > 0.5 {
		t.Fatalf("differently labeled graphs too similar: %f", c)
	}
	// Without the extension the encodings are identical.
	plain := MustNewEncoder(testConfig())
	if !plain.EncodeGraph(g1).Equal(plain.EncodeGraph(g2)) {
		t.Fatal("baseline encoder should ignore labels")
	}
}

// TestRankLabelVectorsDistinctAndStable checks the scratch's (rank,
// label) table against the oracle's int8 vectors, and the oracle's
// vectors for quasi-orthogonality and determinism.
func TestRankLabelVectorsDistinctAndStable(t *testing.T) {
	cfg := testConfig()
	cfg.UseVertexLabels = true
	enc := MustNewEncoder(cfg)
	labels := []int{0, 1, 0, -3} // negative labels are valid in TU files
	tab := enc.NewScratch().labelTable(labels)
	for r, l := range labels {
		if !enc.slabRow(tab, r).Equal(enc.rankLabelVector(r, l).PackBinary()) {
			t.Fatalf("table entry (%d,%d) differs from the int8 reference", r, l)
		}
	}
	a := enc.rankLabelVector(0, 0)
	b := enc.rankLabelVector(0, 1)
	c := enc.rankLabelVector(1, 0)
	if math.Abs(a.Cosine(b)) > 0.1 || math.Abs(a.Cosine(c)) > 0.1 || math.Abs(b.Cosine(c)) > 0.1 {
		t.Fatal("(rank,label) basis vectors not quasi-orthogonal")
	}
	if neg := enc.rankLabelVector(0, -3); math.Abs(neg.Cosine(a)) > 0.1 {
		t.Fatal("negative-label vector correlated")
	}
	// A second scratch produces the same vectors, and refilling a table
	// does not depend on what it held.
	s2 := enc.NewScratch()
	s2.labelTable([]int{5, 6, 7})
	if tab2 := s2.labelTable([]int{1, 0}); !enc.slabRow(tab2, 1).Equal(c.PackBinary()) {
		t.Fatal("keyed generation not deterministic")
	}
}

// twoClassDataset builds an easily separable two-class problem:
// class 0 = sparse ER graphs, class 1 = hub-dominated BA graphs.
func twoClassDataset(n int, seed uint64) ([]*graph.Graph, []int) {
	rng := hdc.NewRNG(seed)
	var gs []*graph.Graph
	var ys []int
	for i := 0; i < n; i++ {
		gs = append(gs, graph.ErdosRenyi(24, 0.08, rng))
		ys = append(ys, 0)
		gs = append(gs, graph.BarabasiAlbert(24, 1, rng))
		ys = append(ys, 1)
	}
	return gs, ys
}

func TestTrainPredictSeparable(t *testing.T) {
	gs, ys := twoClassDataset(30, 3)
	m, err := Train(testConfig(), gs, ys)
	if err != nil {
		t.Fatal(err)
	}
	testG, testY := twoClassDataset(10, 99)
	correct := 0
	for i, g := range testG {
		if m.Predict(g) == testY[i] {
			correct++
		}
	}
	acc := float64(correct) / float64(len(testG))
	if acc < 0.85 {
		t.Fatalf("accuracy = %f on trivially separable data", acc)
	}
}

func TestPredictAllMatchesPredict(t *testing.T) {
	gs, ys := twoClassDataset(10, 4)
	m, err := Train(testConfig(), gs, ys)
	if err != nil {
		t.Fatal(err)
	}
	batch := m.PredictAll(gs)
	for i, g := range gs {
		if batch[i] != m.Predict(g) {
			t.Fatalf("batch and single predictions differ at %d", i)
		}
	}
}

// TestFitParallelEqualsSequential pins Fit's int32 class sums and counts
// to one-at-a-time Learn calls across label orders that stress the
// one-class chunking: a single class, strictly alternating classes,
// classes of 1, 31, 32 and 33 graphs (one chunk short of, exactly at and
// one past the chunk size), and six classes. d = 1000 leaves a partial
// final word in every fold.
func TestFitParallelEqualsSequential(t *testing.T) {
	rng := hdc.NewRNG(5)
	pool := make([]*graph.Graph, 120)
	for i := range pool {
		switch i % 4 {
		case 0:
			pool[i] = graph.ErdosRenyi(24, 0.15, rng)
		case 1:
			pool[i] = graph.BarabasiAlbert(24, 1, rng)
		case 2:
			pool[i] = graph.ErdosRenyi(40, 0.2, rng) // past MaxSmallSign edges
		default:
			pool[i] = graph.WattsStrogatz(24, 4, 0.1, rng)
		}
	}
	pool[7] = graph.NewBuilder(3).Build() // edgeless: the reference encoder

	repeat := func(runs ...int) []int { // runs: class, count, class, count, ...
		var ls []int
		for i := 0; i < len(runs); i += 2 {
			for j := 0; j < runs[i+1]; j++ {
				ls = append(ls, runs[i])
			}
		}
		return ls
	}
	shuffle := func(ls []int) []int {
		out := make([]int, len(ls))
		for i, j := range rng.Perm(len(ls)) {
			out[i] = ls[j]
		}
		return out
	}
	alternating := make([]int, 70)
	six := make([]int, 120)
	for i := range alternating {
		alternating[i] = i % 2
	}
	for i := range six {
		six[i] = rng.Intn(6)
	}
	cases := []struct {
		name   string
		k      int
		labels []int
	}{
		{"one class", 1, repeat(0, 70)},
		{"one class of two", 2, repeat(1, 64)},
		{"alternating", 2, alternating},
		{"classes of 1, 31, 32, 33 sorted", 4, repeat(0, 1, 1, 31, 2, 32, 3, 33)},
		{"classes of 1, 31, 32, 33 shuffled", 4, shuffle(repeat(0, 1, 1, 31, 2, 32, 3, 33))},
		{"six classes", 6, six},
	}
	cfg := testConfig()
	cfg.Dimension = 1000
	for _, tc := range cases {
		gs := pool[:len(tc.labels)]
		fit, _ := NewModel(MustNewEncoder(cfg), tc.k)
		if err := fit.Fit(gs, tc.labels); err != nil {
			t.Fatal(err)
		}
		seq, _ := NewModel(MustNewEncoder(cfg), tc.k)
		for i, g := range gs {
			if _, err := seq.Learn(g, tc.labels[i]); err != nil {
				t.Fatal(err)
			}
		}
		for c := 0; c < tc.k; c++ {
			got, want := fit.am.ClassAccumulator(c), seq.am.ClassAccumulator(c)
			if got.Count() != want.Count() {
				t.Fatalf("%s: class %d count %d after Fit, %d after Learn", tc.name, c, got.Count(), want.Count())
			}
			if !slices.Equal(got.Sums(), want.Sums()) {
				t.Fatalf("%s: class %d sums differ between Fit and sequential Learn", tc.name, c)
			}
		}
	}
}

func TestModelErrors(t *testing.T) {
	enc := MustNewEncoder(testConfig())
	if _, err := NewModel(enc, 0); err == nil {
		t.Fatal("expected class count error")
	}
	m, _ := NewModel(enc, 2)
	if _, err := m.Learn(graph.Ring(4), 5); err == nil {
		t.Fatal("expected label range error")
	}
	if err := m.Fit([]*graph.Graph{graph.Ring(3)}, []int{0, 1}); err == nil {
		t.Fatal("expected length mismatch error")
	}
	if err := m.Fit([]*graph.Graph{graph.Ring(3)}, []int{9}); err == nil {
		t.Fatal("expected label range error in Fit")
	}
	if _, err := Train(testConfig(), nil, nil); err == nil {
		t.Fatal("expected empty training set error")
	}
}

func TestSimilaritiesShape(t *testing.T) {
	gs, ys := twoClassDataset(5, 6)
	m, err := Train(testConfig(), gs, ys)
	if err != nil {
		t.Fatal(err)
	}
	sims := m.Similarities(gs[0])
	if len(sims) != 2 {
		t.Fatalf("similarities length = %d", len(sims))
	}
	for _, s := range sims {
		if s < -1.0001 || s > 1.0001 {
			t.Fatalf("similarity %f outside [-1,1]", s)
		}
	}
}

func TestBipolarClassVectorMode(t *testing.T) {
	cfg := testConfig()
	cfg.BipolarClassVectors = true
	gs, ys := twoClassDataset(30, 7)
	m, err := Train(cfg, gs, ys)
	if err != nil {
		t.Fatal(err)
	}
	testG, testY := twoClassDataset(10, 77)
	correct := 0
	for i, g := range testG {
		if m.Predict(g) == testY[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(testG)); acc < 0.8 {
		t.Fatalf("bipolar-mode accuracy = %f", acc)
	}
}

func TestRetrainReducesTrainingErrors(t *testing.T) {
	// A harder problem: same generator family, different parameter.
	rng := hdc.NewRNG(8)
	var gs []*graph.Graph
	var ys []int
	for i := 0; i < 40; i++ {
		gs = append(gs, graph.ErdosRenyi(20, 0.10, rng))
		ys = append(ys, 0)
		gs = append(gs, graph.ErdosRenyi(20, 0.18, rng))
		ys = append(ys, 1)
	}
	m, err := Train(testConfig(), gs, ys)
	if err != nil {
		t.Fatal(err)
	}
	trainAcc := func() float64 {
		c := 0
		for i, g := range gs {
			if m.Predict(g) == ys[i] {
				c++
			}
		}
		return float64(c) / float64(len(gs))
	}
	before := trainAcc()
	updates, err := m.Retrain(gs, ys, RetrainOptions{Epochs: 10})
	if err != nil {
		t.Fatal(err)
	}
	after := trainAcc()
	if after < before-1e-9 {
		t.Fatalf("retraining hurt training accuracy: %f -> %f", before, after)
	}
	if len(updates) == 0 {
		t.Fatal("no epochs recorded")
	}
}

func TestRetrainErrors(t *testing.T) {
	gs, ys := twoClassDataset(4, 9)
	m, err := Train(testConfig(), gs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Retrain(gs, ys[:1], RetrainOptions{}); err == nil {
		t.Fatal("expected length mismatch error")
	}
	// Out-of-range labels are refused with Fit's error, before encoding.
	for _, bad := range []int{2, -1} {
		ys2 := slices.Clone(ys)
		ys2[3] = bad
		_, err := m.Retrain(gs, ys2, RetrainOptions{Epochs: 1})
		want := fmt.Sprintf("core: label %d out of range [0,2)", bad)
		if err == nil || err.Error() != want {
			t.Fatalf("label %d: error %v, want %q", bad, err, want)
		}
	}
}

func TestRetrainShuffleDeterministic(t *testing.T) {
	gs, ys := twoClassDataset(10, 10)
	seed := uint64(42)
	run := func() []int {
		m, err := Train(testConfig(), gs, ys)
		if err != nil {
			t.Fatal(err)
		}
		u, err := m.Retrain(gs, ys, RetrainOptions{Epochs: 3, ShuffleSeed: &seed})
		if err != nil {
			t.Fatal(err)
		}
		return u
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("nondeterministic epoch count")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nondeterministic updates")
		}
	}
}

func TestMultiPrototypeModel(t *testing.T) {
	enc := MustNewEncoder(testConfig())
	mp, err := NewMultiPrototypeModel(enc, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	gs, ys := twoClassDataset(20, 11)
	if err := mp.Fit(gs, ys); err != nil {
		t.Fatal(err)
	}
	if mp.NumClasses() != 2 {
		t.Fatal("class count")
	}
	if mp.NumPrototypes(0) != 3 || mp.NumPrototypes(1) != 3 {
		t.Fatalf("prototypes = %d/%d, want 3/3", mp.NumPrototypes(0), mp.NumPrototypes(1))
	}
	testG, testY := twoClassDataset(10, 111)
	preds := mp.PredictAll(testG)
	correct := 0
	for i := range preds {
		if preds[i] == testY[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(testG)); acc < 0.8 {
		t.Fatalf("multi-prototype accuracy = %f", acc)
	}
}

func TestMultiPrototypeErrors(t *testing.T) {
	enc := MustNewEncoder(testConfig())
	if _, err := NewMultiPrototypeModel(enc, 0, 1); err == nil {
		t.Fatal("expected class count error")
	}
	if _, err := NewMultiPrototypeModel(enc, 2, 0); err == nil {
		t.Fatal("expected prototype count error")
	}
	mp, _ := NewMultiPrototypeModel(enc, 2, 1)
	if err := mp.Learn(graph.Ring(4), 7); err == nil {
		t.Fatal("expected label range error")
	}
	if err := mp.Fit([]*graph.Graph{graph.Ring(3)}, nil); err == nil {
		t.Fatal("expected length mismatch")
	}
	// Untrained model predicts class 0.
	if got := mp.Predict(graph.Ring(4)); got != 0 {
		t.Fatalf("untrained prediction = %d", got)
	}
}

// TestMultiPrototypeFitRejectsBeforeLearning: a set with an
// out-of-range label is refused before any graph is learned, so no
// prototype is created for any class.
func TestMultiPrototypeFitRejectsBeforeLearning(t *testing.T) {
	mp, _ := NewMultiPrototypeModel(MustNewEncoder(testConfig()), 2, 3)
	gs := []*graph.Graph{graph.Ring(4), graph.Ring(5), graph.Ring(6)}
	if err := mp.Fit(gs, []int{0, 1, 7}); err == nil {
		t.Fatal("expected label range error")
	}
	for c := 0; c < mp.NumClasses(); c++ {
		if n := mp.NumPrototypes(c); n != 0 {
			t.Fatalf("rejected Fit left %d prototypes in class %d", n, c)
		}
	}
}

func TestHigherDimensionImprovesOrMatchesSeparation(t *testing.T) {
	// Sanity check behind the dimension ablation: on a fixed problem the
	// class-margin statistics should not collapse as d grows.
	gs, ys := twoClassDataset(20, 12)
	accAt := func(d int) float64 {
		cfg := testConfig()
		cfg.Dimension = d
		m, err := Train(cfg, gs, ys)
		if err != nil {
			t.Fatal(err)
		}
		testG, testY := twoClassDataset(15, 120)
		c := 0
		for i, g := range testG {
			if m.Predict(g) == testY[i] {
				c++
			}
		}
		return float64(c) / float64(len(testG))
	}
	lo, hi := accAt(64), accAt(4096)
	if hi < lo-0.15 {
		t.Fatalf("accuracy degraded with dimension: d=64 %f vs d=4096 %f", lo, hi)
	}
}

func TestCentralityMetricChangesEncoding(t *testing.T) {
	// A graph whose PageRank and degree orderings differ must encode
	// differently under the two metrics; a rank-tied symmetric graph
	// encodes identically.
	cfgPR := testConfig()
	cfgDeg := testConfig()
	cfgDeg.Centrality = centrality.Degree
	encPR := MustNewEncoder(cfgPR)
	encDeg := MustNewEncoder(cfgDeg)

	g := graph.BarabasiAlbert(30, 2, hdc.NewRNG(55))
	rPR := encPR.Ranks(g)
	rDeg := encDeg.Ranks(g)
	differ := false
	for i := range rPR {
		if rPR[i] != rDeg[i] {
			differ = true
			break
		}
	}
	if differ {
		if encPR.EncodeGraph(g).Equal(encDeg.EncodeGraph(g)) {
			t.Fatal("different rankings produced identical encodings")
		}
	}
	ring := graph.Ring(10)
	if !encPR.EncodeGraph(ring).Equal(encDeg.EncodeGraph(ring)) {
		t.Fatal("fully tied rankings should encode identically")
	}
}

func TestCentralityMetricsAllTrainable(t *testing.T) {
	gs, ys := twoClassDataset(15, 66)
	for _, m := range centrality.AllMetrics() {
		cfg := testConfig()
		cfg.Centrality = m
		model, err := Train(cfg, gs, ys)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		preds := model.PredictAll(gs)
		if eval := trainAccOf(preds, ys); eval < 0.8 {
			t.Fatalf("%s train accuracy = %f", m, eval)
		}
	}
}

func trainAccOf(preds, ys []int) float64 {
	c := 0
	for i := range preds {
		if preds[i] == ys[i] {
			c++
		}
	}
	return float64(c) / float64(len(preds))
}
