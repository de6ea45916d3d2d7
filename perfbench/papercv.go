package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"graphhd/internal/core"
	"graphhd/internal/dataset"
	"graphhd/internal/eval"
	"graphhd/internal/graph"
)

const (
	cvFolds = 10
	// cvPasses is how many times each test fold is classified. One pass
	// over a fold takes a few milliseconds; repeating it times inference
	// over enough work to be steady.
	cvPasses = 10
	// minFolds is how many folds a timed phase runs at least: each gives
	// one latency sample, and p90 needs ten samples beyond it.
	minFolds = 10 * minBeyond
	// predictChunk is how many graphs PredictAll encodes at a time; the
	// traced run replays a test fold in requests of that size.
	predictChunk = 32
)

// paperCV is the paper's protocol on NCI1 at paper scale: repeated
// stratified 10-fold cross-validation, folds run one after another. Each
// fold trains with core.Train and classifies its test fold cvPasses times
// with Predictor.PredictAll. A fold's latency sample is the protocol's fold
// time, training plus the first classification of the test fold.
type paperCV struct {
	cfg  core.Config
	ds   *graph.Dataset
	seed uint64
	// last is the most recent fold, which the traced run replays.
	last struct {
		train, test *graph.Dataset
		pred        *core.Predictor
	}
}

func setupPaperCV(seed uint64) (workload, int, time.Duration, error) {
	ds, err := dataset.Generate("NCI1", dataset.Options{Seed: seed})
	if err != nil {
		return nil, 0, 0, err
	}
	w := &paperCV{cfg: core.DefaultConfig(), ds: ds, seed: seed}
	folds, err := w.split(0)
	if err != nil {
		return nil, 0, 0, err
	}
	// One untimed fold grows the heap and the basis caches.
	var warm phase
	if err := w.fold(folds, 0, &warm, nil); err != nil {
		return nil, 0, 0, err
	}
	if warm.wrong > 0 {
		return nil, 0, 0, fmt.Errorf("warm-up fold: %d answers differ from the per-graph predictor", warm.wrong)
	}
	return w, warm.trained, warm.trainWall, nil
}

// split returns repetition rep's stratified folds.
func (w *paperCV) split(rep int) ([][]int, error) {
	return eval.StratifiedKFold(w.ds.Labels, cvFolds, w.seed+uint64(rep)*0x9e3779b97f4a7c15)
}

// timed runs whole repetitions of the 10-fold protocol until d has passed
// and at least minFolds folds have run.
func (w *paperCV) timed(d time.Duration, tr *tracer) (*phase, error) {
	ph := &phase{}
	start := readProc()
	deadline := start.wall.Add(d)
	for rep := 0; rep*cvFolds < minFolds || time.Now().Before(deadline); rep++ {
		var folds [][]int
		var err error
		tr.timed("cv.split", -1, func() { folds, err = w.split(rep) })
		if err != nil {
			return nil, err
		}
		for f := range folds {
			if err := w.fold(folds, f, ph, tr); err != nil {
				return nil, err
			}
		}
	}
	ph.whole = since(start)
	ph.heapMB = heapLiveMB()
	return ph, nil
}

// fold trains on every fold but f and classifies fold f, adding the work,
// its cost and its outcomes to ph. Only the core.Train and PredictAll
// calls are measured. Between them a forced collection keeps
// the training's garbage from being collected during the inference
// timing, and the output check runs.
func (w *paperCV) fold(folds [][]int, f int, ph *phase, tr *tracer) error {
	var trainIdx []int
	for j, fold := range folds {
		if j != f {
			trainIdx = append(trainIdx, fold...)
		}
	}
	train, test := w.ds.Subset(trainIdx), w.ds.Subset(folds[f])
	root := tr.open("cv.fold", -1)
	defer tr.close(root)

	var model *core.Model
	var err error
	p0 := readProc()
	t0 := time.Now()
	tr.timed("cv.train", root, func() { model, err = core.Train(w.cfg, train.Graphs, train.Labels) })
	trainWall := time.Since(t0)
	ph.trainWall += trainWall
	ph.work.add(since(p0))
	if err != nil {
		return err
	}
	ph.trained += len(train.Graphs)
	pred := model.Snapshot()
	runtime.GC()

	// The reference answers come from the per-graph path, not the batch
	// path PredictAll takes.
	ref := make([]int, len(test.Graphs))
	for i, g := range test.Graphs {
		ref[i] = pred.Predict(g)
	}
	for pass := 0; pass < cvPasses; pass++ {
		var out []int
		p0 := readProc()
		t0 := time.Now()
		tr.timed("cv.predict_all", root, func() { out = pred.PredictAll(test.Graphs) })
		el := time.Since(t0)
		ph.work.add(since(p0))
		ph.wall += el
		if pass == 0 {
			// The later passes only time inference over enough work to
			// be steady. A lone PredictAll call is no steady latency
			// sample: its tail swings with how promptly the host runs
			// the second worker's core.
			ph.lat = append(ph.lat, float64((trainWall+el).Nanoseconds())/1e3)
		}
		ph.attempted++
		if !slices.Equal(out, ref) {
			ph.wrong++
			ph.failed++
			continue
		}
		ph.classified += len(out)
		for i, c := range out {
			if c == test.Labels[i] {
				ph.correct++
			}
		}
	}
	w.last.train, w.last.test, w.last.pred = train, test, pred
	return nil
}

func (w *paperCV) close() {}
