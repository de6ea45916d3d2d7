// Command graphhd trains a GraphHD model on a TUDataset-format directory
// and reports cross-validated accuracy and timing, or classifies a second
// dataset with a model trained on the first.
//
// Usage:
//
//	graphhd -data ./data -name MUTAG                 # 10-fold CV report
//	graphhd -data ./data -name MUTAG -folds 5 -reps 1
//	graphhd -data ./data -name MUTAG -dim 4096 -pr-iters 5
//	graphhd -data ./data -name MUTAG -predict ./data2 -predict-name TEST
//	graphhd -data ./data -name MUTAG -save-packed model.ghdp   # packed deployment artifact
//	graphhd -data ./data -name MUTAG -load model.ghdp          # packed-path inference
//	graphhd -data ./data -name MUTAG -load model.ghdp -workers -1  # parallel batch inference
//	graphhd -data ./data -name MUTAG -cv-workers -1            # parallel CV folds
//
// The directory layout is <data>/<name>/<name>_*.txt as produced by
// cmd/datagen or an unzipped TUDataset archive.
//
// For online inference over HTTP — admission control, hot model reload
// and metrics — serve a saved artifact with cmd/graphhd-serve instead.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"graphhd"
	"graphhd/internal/eval"
	"graphhd/internal/parallel"
)

func main() {
	var (
		data        = flag.String("data", ".", "directory containing the dataset folder")
		name        = flag.String("name", "", "dataset name (required)")
		dim         = flag.Int("dim", 10000, "hypervector dimension")
		prIters     = flag.Int("pr-iters", 10, "PageRank iterations")
		folds       = flag.Int("folds", 10, "cross-validation folds")
		reps        = flag.Int("reps", 3, "cross-validation repetitions")
		seed        = flag.Uint64("seed", 1, "random seed")
		retrain     = flag.Int("retrain", 0, "retraining epochs after initial fit (0 = off)")
		useLabels   = flag.Bool("use-labels", false, "use vertex labels when present (extension)")
		predict     = flag.String("predict", "", "train on -data and classify this directory instead of CV")
		predictName = flag.String("predict-name", "", "dataset name under -predict (defaults to -name)")
		saveModel   = flag.String("save", "", "train on the full dataset and save the model to this path")
		savePacked  = flag.String("save-packed", "", "train on the full dataset and save the packed query predictor to this path")
		loadModel   = flag.String("load", "", "load a saved model or packed predictor and classify -data/-name with it")
		cvWorkers   = flag.Int("cv-workers", 1, "concurrent CV folds (-1 = all cores; timings are contended unless 1)")
		workers     = flag.Int("workers", 1, "-load classification workers (-1 = all cores; per-graph timing is contended unless 1)")
	)
	flag.Parse()
	if *name == "" {
		fmt.Fprintln(os.Stderr, "graphhd: -name is required")
		flag.Usage()
		os.Exit(2)
	}

	ds, err := graphhd.ReadTUDataset(*data, *name)
	if err != nil {
		fatal(err)
	}
	cfg := graphhd.DefaultConfig()
	cfg.Dimension = *dim
	cfg.PageRankIterations = *prIters
	cfg.Seed = *seed
	cfg.UseVertexLabels = *useLabels

	st := graphhd.ComputeDatasetStats(ds)
	fmt.Printf("dataset %s: %d graphs, %d classes, avg |V|=%.2f, avg |E|=%.2f\n",
		st.Name, st.Graphs, st.Classes, st.AvgVertices, st.AvgEdges)

	if *loadModel != "" {
		// LoadPredictorFile accepts both the full-model and the packed
		// record, so inference always runs on the packed path.
		pred, err := graphhd.LoadPredictorFile(*loadModel)
		if err != nil {
			fatal(err)
		}
		t0 := time.Now()
		preds := pred.PredictAllWorkers(ds.Graphs, *workers)
		elapsed := time.Since(t0)
		correct := 0
		for i, p := range preds {
			if p == ds.Labels[i] {
				correct++
			}
		}
		fmt.Printf("loaded model accuracy on %s: %.4f (%d graphs)\n",
			*name, float64(correct)/float64(len(preds)), len(preds))
		fmt.Printf("batch inference (%d workers): %v total, %v per graph (scratch-reuse path, zero allocations per graph)\n",
			parallel.Workers(*workers, len(preds)), elapsed, elapsed/time.Duration(len(preds)))
		fmt.Println("inference: packed majority-voted class vectors (full-model records are snapshotted on load)")
		fmt.Printf("query memory: %d bytes packed (int32 accumulators would use %d bytes, %.1f× more)\n",
			pred.MemoryBytes(), pred.NumClasses()*pred.Encoder().Dimension()*4,
			float64(pred.NumClasses()*pred.Encoder().Dimension()*4)/float64(pred.MemoryBytes()))
		return
	}
	if *saveModel != "" || *savePacked != "" {
		model, err := graphhd.Train(cfg, ds.Graphs, ds.Labels)
		if err != nil {
			fatal(err)
		}
		if *retrain > 0 {
			updates, err := model.Retrain(ds.Graphs, ds.Labels, graphhd.RetrainOptions{Epochs: *retrain})
			if err != nil {
				fatal(err)
			}
			fmt.Print(retrainSummary(updates, *retrain))
		}
		if *saveModel != "" {
			if err := model.SaveFile(*saveModel); err != nil {
				fatal(err)
			}
			fmt.Printf("saved model to %s (%d bytes of accumulator state)\n", *saveModel, model.MemoryBytes())
		}
		if *savePacked != "" {
			pred := model.Snapshot()
			if err := pred.SaveFile(*savePacked); err != nil {
				fatal(err)
			}
			fmt.Printf("saved packed predictor to %s (%d bytes of class vectors, %.1f× smaller than accumulators)\n",
				*savePacked, pred.MemoryBytes(), float64(model.MemoryBytes())/float64(pred.MemoryBytes()))
		}
		return
	}

	if *predict != "" {
		runPredict(cfg, ds, *predict, *predictName, *name, *retrain)
		return
	}

	res, err := graphhd.CrossValidate("GraphHD", ds, func(fold int, s uint64) graphhd.Classifier {
		c := cfg
		c.Seed = s
		if *retrain > 0 {
			return &retrainingClassifier{cfg: c, epochs: *retrain}
		}
		return graphhd.NewGraphHDClassifier(c)
	}, graphhd.CVOptions{Folds: *folds, Repetitions: *reps, Seed: *seed, Workers: *cvWorkers})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("accuracy: %.4f ± %.4f (%d folds)\n", res.MeanAccuracy(), res.StdAccuracy(), len(res.Folds))
	fmt.Printf("training time per fold: %v\n", res.MeanTrainTime())
	fmt.Printf("inference time per graph: %v\n", res.MeanInferTimePerGraph())
}

// runPredict trains on the full training dataset and labels another one,
// classifying through the packed query snapshot.
func runPredict(cfg graphhd.Config, train *graphhd.Dataset, dir, name, fallback string, retrain int) {
	if name == "" {
		name = fallback
	}
	test, err := graphhd.ReadTUDataset(dir, name)
	if err != nil {
		fatal(err)
	}
	model, err := graphhd.Train(cfg, train.Graphs, train.Labels)
	if err != nil {
		fatal(err)
	}
	if retrain > 0 {
		updates, err := model.Retrain(train.Graphs, train.Labels, graphhd.RetrainOptions{Epochs: retrain})
		if err != nil {
			fatal(err)
		}
		fmt.Print(retrainSummary(updates, retrain))
	}
	preds := model.Snapshot().PredictAll(test.Graphs)
	correct := 0
	for i, p := range preds {
		fmt.Printf("graph %d: predicted class %s\n", i, train.ClassNames[p])
		if i < len(test.Labels) && p == test.Labels[i] {
			correct++
		}
	}
	if len(test.Labels) == len(preds) {
		fmt.Printf("accuracy vs provided labels: %.4f\n", float64(correct)/float64(len(preds)))
	}
}

// retrainSummary renders the per-epoch update counts Retrain returns.
// The slice's length is the number of epochs actually run — Retrain stops
// early after an error-free pass — so it, not the requested budget, bounds
// any per-epoch iteration.
func retrainSummary(updates []int, budget int) string {
	total := 0
	for _, n := range updates {
		total += n
	}
	s := fmt.Sprintf("retraining: %d corrective updates over %d epoch(s)", total, len(updates))
	if len(updates) < budget {
		s += fmt.Sprintf(" (early stop, budget %d)", budget)
	}
	return s + "\n"
}

// retrainingClassifier adapts retraining into the CV harness. Inference
// runs on the packed snapshot, the same query semantics as the
// non-retraining GraphHD adapter, so -retrain comparisons measure
// retraining alone.
type retrainingClassifier struct {
	cfg    graphhd.Config
	epochs int
	pred   *graphhd.Predictor
}

func (c *retrainingClassifier) Fit(gs []*graphhd.Graph, labels []int) error {
	m, err := graphhd.Train(c.cfg, gs, labels)
	if err != nil {
		return err
	}
	if _, err := m.Retrain(gs, labels, graphhd.RetrainOptions{Epochs: c.epochs}); err != nil {
		return err
	}
	c.pred = m.Snapshot()
	return nil
}

func (c *retrainingClassifier) PredictAll(gs []*graphhd.Graph) []int {
	return c.pred.PredictAll(gs)
}

var _ eval.Classifier = (*retrainingClassifier)(nil)

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "graphhd:", err)
	os.Exit(1)
}
