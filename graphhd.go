// Package graphhd is a pure-Go implementation of GraphHD (Nunes et al.,
// DATE 2022): efficient graph classification with hyperdimensional
// computing. A graph is encoded into a single high-dimensional bipolar
// hypervector — PageRank centrality ranks identify vertices, binding
// encodes edges, bundling aggregates a whole graph — and classification is
// a nearest-class-vector query.
//
// The package also ships everything needed to reproduce the paper's
// evaluation: the 1-WL and WL-OA graph kernel baselines with an SMO-based
// SVM, the GIN-ε and GIN-ε-JK graph neural network baselines on a
// from-scratch neural substrate, synthetic TUDataset-calibrated benchmark
// generators, the TUDataset flat-file format, and a cross-validation
// harness with the paper's timing protocol.
//
// Quick start:
//
//	ds := graphhd.MustGenerateDataset("MUTAG", graphhd.DatasetOptions{Seed: 1})
//	model, err := graphhd.Train(graphhd.DefaultConfig(), ds.Graphs, ds.Labels)
//	if err != nil { ... }
//	class := model.Predict(ds.Graphs[0])
//
// See the examples/ directory for runnable programs and DESIGN.md for the
// system inventory.
package graphhd

import (
	"io"

	"graphhd/internal/centrality"
	"graphhd/internal/core"
	"graphhd/internal/dataset"
	"graphhd/internal/eval"
	"graphhd/internal/gin"
	"graphhd/internal/graph"
	"graphhd/internal/hdc"
	"graphhd/internal/pagerank"
	"graphhd/internal/wl"
)

// Core GraphHD types.
type (
	// Config holds GraphHD hyper-parameters; see DefaultConfig.
	Config = core.Config
	// Model is a trained GraphHD classifier.
	Model = core.Model
	// Encoder maps graphs to hypervectors.
	Encoder = core.Encoder
	// Predictor is the packed query snapshot of a trained model: class
	// vectors majority-voted to bit-packed form, inference entirely in the
	// packed domain (see Model.Snapshot).
	Predictor = core.Predictor
	// MultiPrototypeModel is the multiple-class-vectors extension.
	MultiPrototypeModel = core.MultiPrototypeModel
	// RetrainOptions configures perceptron-style retraining.
	RetrainOptions = core.RetrainOptions
)

// Graph substrate types.
type (
	// Graph is an immutable simple undirected graph.
	Graph = graph.Graph
	// GraphBuilder accumulates edges and produces a Graph.
	GraphBuilder = graph.Builder
	// Dataset is a labeled collection of graphs.
	Dataset = graph.Dataset
	// DatasetStats summarizes a dataset Table-I style.
	DatasetStats = graph.Stats
)

// HDC substrate types.
type (
	// Hypervector is a bipolar (-1/+1) hypervector.
	Hypervector = hdc.Bipolar
	// BinaryHypervector is the bit-packed binary variant.
	BinaryHypervector = hdc.Binary
	// RNG is the deterministic random generator used everywhere.
	RNG = hdc.RNG
)

// Evaluation harness types.
type (
	// Classifier is the harness interface all compared methods implement.
	Classifier = eval.Classifier
	// CVOptions configures cross-validation.
	CVOptions = eval.CrossValidateOptions
	// CVResult aggregates a cross-validation run.
	CVResult = eval.Result
	// GINConfig configures the GIN baselines.
	GINConfig = gin.Config
	// PageRankOptions configures centrality computation.
	PageRankOptions = pagerank.Options
	// WLOptions configures Weisfeiler-Leman refinement.
	WLOptions = wl.Options
	// DatasetOptions configures synthetic dataset generation.
	DatasetOptions = dataset.Options
)

// NewRNG returns the deterministic splitmix64 generator used throughout
// the repository.
func NewRNG(seed uint64) *RNG { return hdc.NewRNG(seed) }

// HypervectorFromComponents builds a bipolar hypervector from explicit
// -1/+1 components (copied).
func HypervectorFromComponents(comps []int8) (*Hypervector, error) {
	return hdc.FromComponents(comps)
}

// DefaultConfig returns the configuration used in every paper experiment:
// 10,000-dimensional bipolar hypervectors and 10 PageRank iterations.
func DefaultConfig() Config { return core.DefaultConfig() }

// Train builds and fits a GraphHD model in one call.
func Train(cfg Config, graphs []*Graph, labels []int) (*Model, error) {
	return core.Train(cfg, graphs, labels)
}

// NewEncoder returns a graph-to-hypervector encoder for cfg. Equal
// configs share one encoder, and with it one basis slab and scratch pool,
// for as long as anything references it.
func NewEncoder(cfg Config) (*Encoder, error) { return core.NewEncoder(cfg) }

// NewModel returns an untrained model for k classes over enc.
func NewModel(enc *Encoder, k int) (*Model, error) { return core.NewModel(enc, k) }

// NewMultiPrototypeModel returns the multiple-class-vectors extension with
// up to protos prototypes per class.
func NewMultiPrototypeModel(enc *Encoder, k, protos int) (*MultiPrototypeModel, error) {
	return core.NewMultiPrototypeModel(enc, k, protos)
}

// NewGraphBuilder returns a builder for a graph with n vertices.
func NewGraphBuilder(n int) *GraphBuilder { return graph.NewBuilder(n) }

// GraphFromEdges builds a graph directly from an edge list.
func GraphFromEdges(n int, edges [][2]int) (*Graph, error) { return graph.FromEdges(n, edges) }

// ReadTUDataset loads a dataset in TUDataset flat-file format from
// dir/name.
func ReadTUDataset(dir, name string) (*Dataset, error) { return graph.ReadTUDataset(dir, name) }

// WriteTUDataset writes ds to dir/ds.Name in TUDataset flat-file format.
func WriteTUDataset(dir string, ds *Dataset) error { return graph.WriteTUDataset(dir, ds) }

// GenerateDataset synthesizes one of the six Table I benchmark datasets
// ("DD", "ENZYMES", "MUTAG", "NCI1", "PROTEINS", "PTC_FM").
func GenerateDataset(name string, opts DatasetOptions) (*Dataset, error) {
	return dataset.Generate(name, opts)
}

// MustGenerateDataset is GenerateDataset that panics on error.
func MustGenerateDataset(name string, opts DatasetOptions) *Dataset {
	return dataset.MustGenerate(name, opts)
}

// DatasetNames returns the six benchmark dataset names.
func DatasetNames() []string { return dataset.Names() }

// ScalingDataset builds the Figure 4 Erdős–Rényi scaling dataset with n
// vertices per graph.
func ScalingDataset(n, graphs int, seed uint64) *Dataset { return dataset.Scaling(n, graphs, seed) }

// ComputeDatasetStats derives Table-I-style statistics.
func ComputeDatasetStats(ds *Dataset) DatasetStats { return graph.ComputeStats(ds) }

// ExtendedDatasetStats adds diameter/clustering/degeneracy measures.
type ExtendedDatasetStats = graph.ExtendedStats

// ComputeExtendedDatasetStats derives the extended statistics (O(V·E) per
// graph; offline analysis).
func ComputeExtendedDatasetStats(ds *Dataset) ExtendedDatasetStats {
	return graph.ComputeExtendedStats(ds)
}

// PageRankScores returns PageRank centrality scores for every vertex.
func PageRankScores(g *Graph, opts PageRankOptions) []float64 { return pagerank.Scores(g, opts) }

// PageRankRanks returns each vertex's centrality rank, GraphHD's vertex
// identifier.
func PageRankRanks(g *Graph, opts PageRankOptions) []int { return pagerank.Ranks(g, opts) }

// LoadModelFile reads a model saved with Model.SaveFile.
func LoadModelFile(path string) (*Model, error) { return core.LoadModelFile(path) }

// ReadModel deserializes a model from r (see Model.WriteTo).
func ReadModel(r io.Reader) (*Model, error) { return core.ReadModel(r) }

// LoadPredictorFile reads a packed predictor saved with Predictor.SaveFile
// (it also accepts full-model files, snapshotting them on load).
func LoadPredictorFile(path string) (*Predictor, error) { return core.LoadPredictorFile(path) }

// ReadPredictor deserializes a packed predictor from r (see
// Predictor.WriteTo).
func ReadPredictor(r io.Reader) (*Predictor, error) { return core.ReadPredictor(r) }

// OnlineLearner is the predict-then-learn interface of the streaming
// harness.
type OnlineLearner = eval.OnlineLearner

// NewOnlineGraphHD adapts a model for streaming: packed-path predictions
// against a snapshot that refreshes after every Learn.
func NewOnlineGraphHD(m *Model) OnlineLearner { return eval.OnlineGraphHD(m) }

// CentralityMetric selects the vertex-identifier metric for Config.Centrality.
type CentralityMetric = centrality.Metric

// Centrality metric values for Config.Centrality.
const (
	CentralityPageRank    = centrality.PageRank
	CentralityDegree      = centrality.Degree
	CentralityEigenvector = centrality.Eigenvector
	CentralityCloseness   = centrality.Closeness
)

// CrossValidate runs the paper's repeated stratified k-fold protocol.
func CrossValidate(method string, ds *Dataset, factory func(fold int, seed uint64) Classifier, opts CVOptions) (*CVResult, error) {
	return eval.CrossValidate(method, ds, eval.Factory(factory), opts)
}

// DefaultCVOptions returns the paper protocol: 3 repetitions of 10-fold CV.
func DefaultCVOptions() CVOptions { return eval.DefaultCVOptions() }

// NewGraphHDClassifier adapts GraphHD to the harness interface.
func NewGraphHDClassifier(cfg Config) Classifier { return eval.NewGraphHDClassifier(cfg) }

// NewWLSubtreeClassifier adapts the 1-WL kernel SVM baseline.
func NewWLSubtreeClassifier(seed uint64) Classifier {
	return eval.NewKernelSVMClassifier(eval.KernelWLSubtree, seed)
}

// NewWLOAClassifier adapts the WL-OA kernel SVM baseline.
func NewWLOAClassifier(seed uint64) Classifier {
	return eval.NewKernelSVMClassifier(eval.KernelWLOA, seed)
}

// NewGINClassifier adapts the GIN baselines; jk selects GIN-ε-JK.
func NewGINClassifier(jk bool, seed uint64) Classifier { return eval.NewGINClassifier(jk, seed) }
