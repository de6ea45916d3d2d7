package experiments

import (
	"fmt"
	"io"
	"time"

	"graphhd/internal/centrality"
	"graphhd/internal/core"
	"graphhd/internal/dataset"
	"graphhd/internal/eval"
	"graphhd/internal/graph"
	"graphhd/internal/hdc"
	"graphhd/internal/pagerank"
)

// This file implements the ablation and extension experiments indexed in
// DESIGN.md (A1–A5): hypervector dimension, PageRank iteration count, the
// retraining and multi-prototype extensions (the paper's Future Work 1),
// the vertex-label extension (Future Work 2) and the bipolar vs bit-packed
// binary backend comparison.

// AblationCell is one measurement of an ablation sweep.
type AblationCell struct {
	Param     string
	Value     string
	Accuracy  float64
	TrainTime time.Duration
}

// ablationCV runs a quick 5-fold CV of factory on ds and returns the mean
// accuracy and training time.
func ablationCV(ds *graph.Dataset, factory eval.Factory) (float64, time.Duration, error) {
	res, err := eval.CrossValidate("ablation", ds, factory,
		eval.CrossValidateOptions{Folds: 5, Repetitions: 1, Seed: 0xab1a})
	if err != nil {
		return 0, 0, err
	}
	return res.MeanAccuracy(), res.MeanTrainTime(), nil
}

// RunDimensionAblation sweeps the hypervector dimension on a MUTAG-like
// dataset (A1). Accuracy should climb with dimension and saturate near the
// paper's d = 10,000.
func RunDimensionAblation(dims []int, graphCount int, seed uint64) ([]AblationCell, error) {
	if dims == nil {
		dims = []int{256, 512, 1024, 2048, 4096, 8192, 10000, 16384}
	}
	ds, err := dataset.Generate("MUTAG", dataset.Options{Seed: seed, GraphCount: graphCount})
	if err != nil {
		return nil, err
	}
	var cells []AblationCell
	for _, d := range dims {
		d := d
		acc, tt, err := ablationCV(ds, func(fold int, s uint64) eval.Classifier {
			cfg := core.DefaultConfig()
			cfg.Dimension = d
			cfg.Seed = s
			return eval.NewGraphHDClassifier(cfg)
		})
		if err != nil {
			return nil, err
		}
		cells = append(cells, AblationCell{Param: "dimension", Value: fmt.Sprint(d), Accuracy: acc, TrainTime: tt})
	}
	return cells, nil
}

// RunPageRankIterAblation sweeps PageRank iteration counts (A2),
// reproducing the claim that accuracy plateaus by 10 iterations.
func RunPageRankIterAblation(iters []int, graphCount int, seed uint64) ([]AblationCell, error) {
	if iters == nil {
		iters = []int{1, 2, 3, 5, 10, 15, 20}
	}
	ds, err := dataset.Generate("ENZYMES", dataset.Options{Seed: seed, GraphCount: graphCount})
	if err != nil {
		return nil, err
	}
	var cells []AblationCell
	for _, it := range iters {
		it := it
		acc, tt, err := ablationCV(ds, func(fold int, s uint64) eval.Classifier {
			cfg := core.DefaultConfig()
			cfg.Dimension = 4096 // keep the sweep quick; dimension is not the variable
			cfg.PageRankIterations = it
			cfg.Seed = s
			return eval.NewGraphHDClassifier(cfg)
		})
		if err != nil {
			return nil, err
		}
		cells = append(cells, AblationCell{Param: "pagerank-iters", Value: fmt.Sprint(it), Accuracy: acc, TrainTime: tt})
	}
	return cells, nil
}

// retrainClassifier wraps a GraphHD model with post-fit retraining.
type retrainClassifier struct {
	cfg    core.Config
	epochs int
	model  *core.Model
}

func (c *retrainClassifier) Fit(gs []*graph.Graph, labels []int) error {
	m, err := core.Train(c.cfg, gs, labels)
	if err != nil {
		return err
	}
	if _, err := m.Retrain(gs, labels, core.RetrainOptions{Epochs: c.epochs}); err != nil {
		return err
	}
	c.model = m
	return nil
}

func (c *retrainClassifier) PredictAll(gs []*graph.Graph) []int { return c.model.PredictAll(gs) }

// multiProtoClassifier wraps the multi-prototype extension.
type multiProtoClassifier struct {
	cfg    core.Config
	protos int
	model  *core.MultiPrototypeModel
}

func (c *multiProtoClassifier) Fit(gs []*graph.Graph, labels []int) error {
	enc, err := core.NewEncoder(c.cfg)
	if err != nil {
		return err
	}
	k := 0
	for _, l := range labels {
		if l+1 > k {
			k = l + 1
		}
	}
	m, err := core.NewMultiPrototypeModel(enc, k, c.protos)
	if err != nil {
		return err
	}
	if err := m.Fit(gs, labels); err != nil {
		return err
	}
	c.model = m
	return nil
}

func (c *multiProtoClassifier) PredictAll(gs []*graph.Graph) []int { return c.model.PredictAll(gs) }

// RunExtensionComparison compares baseline GraphHD against the retraining
// and multi-prototype extensions (A3) on a NCI1-like dataset, the setting
// where the paper's accuracy gap to kernels is largest.
func RunExtensionComparison(graphCount int, seed uint64) ([]AblationCell, error) {
	ds, err := dataset.Generate("NCI1", dataset.Options{Seed: seed, GraphCount: graphCount})
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig()
	cfg.Dimension = 4096
	variants := []struct {
		name    string
		factory eval.Factory
	}{
		{"baseline", func(fold int, s uint64) eval.Classifier {
			c := cfg
			c.Seed = s
			return eval.NewGraphHDClassifier(c)
		}},
		{"retrain-5", func(fold int, s uint64) eval.Classifier {
			c := cfg
			c.Seed = s
			return &retrainClassifier{cfg: c, epochs: 5}
		}},
		{"retrain-20", func(fold int, s uint64) eval.Classifier {
			c := cfg
			c.Seed = s
			return &retrainClassifier{cfg: c, epochs: 20}
		}},
		{"protos-4", func(fold int, s uint64) eval.Classifier {
			c := cfg
			c.Seed = s
			return &multiProtoClassifier{cfg: c, protos: 4}
		}},
	}
	var cells []AblationCell
	for _, v := range variants {
		acc, tt, err := ablationCV(ds, v.factory)
		if err != nil {
			return nil, err
		}
		cells = append(cells, AblationCell{Param: "extension", Value: v.name, Accuracy: acc, TrainTime: tt})
	}
	return cells, nil
}

// RunLabelExtension compares encoders with and without vertex labels (A4)
// on a labeled synthetic dataset where part of the class signal lives only
// in the labels.
func RunLabelExtension(graphCount int, seed uint64) ([]AblationCell, error) {
	ds := labeledDataset(graphCount, seed)
	var cells []AblationCell
	for _, useLabels := range []bool{false, true} {
		useLabels := useLabels
		acc, tt, err := ablationCV(ds, func(fold int, s uint64) eval.Classifier {
			cfg := core.DefaultConfig()
			cfg.Dimension = 4096
			cfg.Seed = s
			cfg.UseVertexLabels = useLabels
			return eval.NewGraphHDClassifier(cfg)
		})
		if err != nil {
			return nil, err
		}
		cells = append(cells, AblationCell{
			Param: "vertex-labels", Value: fmt.Sprintf("%v", useLabels),
			Accuracy: acc, TrainTime: tt,
		})
	}
	return cells, nil
}

// labeledDataset builds graphs whose structure is identical across classes
// but whose vertex labels differ statistically — signal only the labeled
// extension can use.
func labeledDataset(count int, seed uint64) *graph.Dataset {
	if count <= 0 {
		count = 100
	}
	rng := hdc.NewRNG(seed ^ 0x1abe1)
	ds := &graph.Dataset{Name: "LABELED", ClassNames: []string{"0", "1"}}
	for i := 0; i < count; i++ {
		c := i % 2
		g := graph.ErdosRenyi(20, 0.15, rng)
		labels := make([]int, g.NumVertices())
		for v := range labels {
			// Class 0 favours label 0, class 1 favours label 1.
			if rng.Float64() < 0.75 {
				labels[v] = c
			} else {
				labels[v] = 1 - c
			}
		}
		b := graph.NewBuilder(g.NumVertices())
		for _, e := range g.Edges() {
			b.MustAddEdge(int(e.U), int(e.V))
		}
		if err := b.SetVertexLabels(labels); err != nil {
			panic(err)
		}
		ds.Graphs = append(ds.Graphs, b.Build())
		ds.Labels = append(ds.Labels, c)
	}
	return ds
}

// RunCentralityAblation compares vertex-identifier metrics (A7): the
// paper's PageRank against degree, eigenvector and closeness centrality,
// cross-validated on an ENZYMES-like dataset where rank structure matters
// (6 classes of distinct topology families).
func RunCentralityAblation(graphCount int, seed uint64) ([]AblationCell, error) {
	ds, err := dataset.Generate("ENZYMES", dataset.Options{Seed: seed, GraphCount: graphCount})
	if err != nil {
		return nil, err
	}
	var cells []AblationCell
	for _, metric := range centrality.AllMetrics() {
		metric := metric
		acc, tt, err := ablationCV(ds, func(fold int, s uint64) eval.Classifier {
			cfg := core.DefaultConfig()
			cfg.Dimension = 4096
			cfg.Seed = s
			cfg.Centrality = metric
			return eval.NewGraphHDClassifier(cfg)
		})
		if err != nil {
			return nil, err
		}
		cells = append(cells, AblationCell{Param: "centrality", Value: metric.String(), Accuracy: acc, TrainTime: tt})
	}
	return cells, nil
}

// RunBackendComparison times graph encoding under the two equivalent
// pipelines (A5): the reference int8 bipolar path (materialized binds
// accumulated in int32 sums, a fresh accumulator per graph as in
// core's encodeGraphSlow) and the bit-sliced packed path the production
// encoder uses (XNOR word binds through the carry-save counter — see
// hdc.BitCounter). The cell's TrainTime is the wall time to encode the
// whole dataset. Both must produce bit-identical hypervectors: after the
// timed loops every graph's packed encoding is checked against the
// int8 leg's, and a mismatch is an error.
func RunBackendComparison(graphCount int, seed uint64) ([]AblationCell, error) {
	ds, err := dataset.Generate("PROTEINS", dataset.Options{Seed: seed, GraphCount: graphCount})
	if err != nil {
		return nil, err
	}
	const dim = 10000
	rng := hdc.NewRNG(seed)
	var bipolarBasis []*hdc.Bipolar
	var packedBasis []*hdc.Binary
	basisFor := func(rank int) int {
		for rank >= len(bipolarBasis) {
			v := hdc.RandomBipolar(dim, rng)
			bipolarBasis = append(bipolarBasis, v)
			packedBasis = append(packedBasis, v.PackBinary())
		}
		return rank
	}
	tie := hdc.RandomBipolar(dim, hdc.NewRNG(seed^0x7e))
	allRanks := make([][]int, ds.Len())
	for i, g := range ds.Graphs {
		allRanks[i] = rankCache(g)
		basisFor(g.NumVertices())
	}

	// Reference int8 path.
	refs := make([]*hdc.Bipolar, ds.Len())
	t0 := time.Now()
	for i, g := range ds.Graphs {
		acc := hdc.NewAccumulator(dim)
		for _, e := range g.Edges() {
			acc.Add(bipolarBasis[allRanks[i][e.U]].Bind(bipolarBasis[allRanks[i][e.V]]))
		}
		refs[i] = acc.Sign(tie)
	}
	referenceTime := time.Since(t0)

	// Bit-sliced packed path, signed as core.EncoderScratch signs: one
	// counter and one packed output reused across graphs, bundles of up
	// to hdc.MaxSmallSign edges through the one-sweep small sign, larger
	// ones through the blocked carry-save front end and the counter's
	// sign.
	packedTie := tie.PackBinary()
	counter := hdc.NewBitCounter(dim)
	out := hdc.NewBinary(dim)
	var pairs []hdc.XorPair
	encode := func(i int) {
		pairs = pairs[:0]
		for _, e := range ds.Graphs[i].Edges() {
			pairs = append(pairs, hdc.XorPair{
				A: packedBasis[allRanks[i][e.U]], B: packedBasis[allRanks[i][e.V]], Invert: true,
			})
		}
		if n := len(pairs); n > 0 && n <= hdc.MaxSmallSign {
			counter.SignXorPairsSmallInto(pairs, packedTie, out)
			return
		}
		counter.Reset()
		counter.AddXorPairs(pairs)
		counter.SignBinaryInto(packedTie, out)
	}
	t1 := time.Now()
	for i := range ds.Graphs {
		encode(i)
	}
	packedTime := time.Since(t1)

	for i := range ds.Graphs {
		encode(i)
		if !out.Equal(refs[i].PackBinary()) {
			return nil, fmt.Errorf("experiments: A5 graph %d: bit-sliced encoding differs from the int8 reference", i)
		}
	}
	return []AblationCell{
		{Param: "backend", Value: "int8-reference", TrainTime: referenceTime},
		{Param: "backend", Value: "bit-sliced", TrainTime: packedTime},
	}, nil
}

// rankCache computes PageRank ranks with the same settings the bipolar
// encoder uses, keeping the two backend measurements symmetric.
func rankCache(g *graph.Graph) []int {
	return pagerank.Ranks(g, pagerank.Options{})
}

// WriteAblation renders ablation cells as a table.
func WriteAblation(w io.Writer, title string, cells []AblationCell) {
	fmt.Fprintf(w, "== %s ==\n", title)
	fmt.Fprintf(w, "%-16s %-12s %10s %14s\n", "Param", "Value", "Accuracy", "TrainTime")
	for _, c := range cells {
		fmt.Fprintf(w, "%-16s %-12s %10.3f %14s\n", c.Param, c.Value, c.Accuracy, c.TrainTime.Round(time.Microsecond))
	}
}
