// Package dataset synthesizes the six benchmark datasets of the paper's
// Table I. The real TUDataset files are not redistributable inside this
// offline repository, so each dataset is replaced by a generator
// calibrated to the published statistics (graph count, class count,
// average vertices, average edges) with class-dependent topology so that
// structure-only classifiers have real signal to learn — see the
// substitution table in DESIGN.md. Real TUDataset directories remain fully
// supported through graph.ReadTUDataset and are interchangeable with these
// generators everywhere in the repository.
package dataset

import (
	"fmt"
	"sort"

	"graphhd/internal/graph"
	"graphhd/internal/hdc"
)

// TableIStats records the statistics the paper reports for each dataset
// (Table I), used both for calibration tests and for the T1 experiment.
type TableIStats struct {
	Graphs      int
	Classes     int
	AvgVertices float64
	AvgEdges    float64
}

// PaperTableI is Table I of the paper, keyed by dataset name.
var PaperTableI = map[string]TableIStats{
	"DD":       {1178, 2, 284.32, 715.66},
	"ENZYMES":  {600, 6, 32.63, 62.14},
	"MUTAG":    {188, 2, 17.93, 19.79},
	"NCI1":     {4110, 2, 29.87, 32.3},
	"PROTEINS": {1113, 2, 39.06, 72.82},
	"PTC_FM":   {349, 2, 14.11, 14.48},
}

// Names returns the six benchmark dataset names in Table I order.
func Names() []string {
	names := make([]string, 0, len(PaperTableI))
	for n := range PaperTableI {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Options tunes generation.
type Options struct {
	// Seed fixes the generated dataset.
	Seed uint64
	// GraphCount overrides the paper's graph count when positive; used by
	// tests and quick benchmark modes to shrink datasets proportionally.
	GraphCount int
}

// Generate synthesizes the named dataset.
func Generate(name string, opts Options) (*graph.Dataset, error) {
	stats, ok := PaperTableI[name]
	if !ok {
		return nil, fmt.Errorf("dataset: unknown dataset %q (have %v)", name, Names())
	}
	count := stats.Graphs
	if opts.GraphCount > 0 {
		count = opts.GraphCount
	}
	rng := hdc.NewRNG(opts.Seed ^ nameSeed(name))
	ds := &graph.Dataset{Name: name}
	ds.ClassNames = make([]string, stats.Classes)
	for c := range ds.ClassNames {
		ds.ClassNames[c] = fmt.Sprintf("%d", c)
	}
	gen := generators[name]
	for i := 0; i < count; i++ {
		c := i % stats.Classes
		ds.Graphs = append(ds.Graphs, gen(c, rng))
		ds.Labels = append(ds.Labels, c)
	}
	return ds, ds.Validate()
}

// MustGenerate is Generate that panics on error, for benchmarks with
// compile-time-constant names.
func MustGenerate(name string, opts Options) *graph.Dataset {
	ds, err := Generate(name, opts)
	if err != nil {
		panic(err)
	}
	return ds
}

func nameSeed(name string) uint64 {
	var s uint64
	for _, b := range []byte(name) {
		s = s*131 + uint64(b)
	}
	return s
}

// generator builds one graph of class c.
type generator func(c int, rng *hdc.RNG) *graph.Graph

var generators = map[string]generator{
	"MUTAG":    genMUTAG,
	"NCI1":     genNCI1,
	"PTC_FM":   genPTCFM,
	"PROTEINS": genPROTEINS,
	"ENZYMES":  genENZYMES,
	"DD":       genDD,
}

// --- chemistry-flavoured datasets: motif chains -------------------------
//
// Molecule-like graphs are a path backbone with small ring/branch motifs.
// Classes differ in motif composition (e.g. aromatic six-rings vs
// saturated branches), the same kind of signal that separates mutagenic
// from non-mutagenic compounds.

// sampleMotifs draws n motifs from a cumulative distribution over types.
func sampleMotifs(n int, cdf []motifProb, rng *hdc.RNG) []graph.Motif {
	out := make([]graph.Motif, n)
	for i := range out {
		r := rng.Float64()
		out[i] = cdf[len(cdf)-1].m
		for _, mp := range cdf {
			if r < mp.p {
				out[i] = mp.m
				break
			}
		}
	}
	return out
}

type motifProb struct {
	p float64 // cumulative probability
	m graph.Motif
}

func genMUTAG(c int, rng *hdc.RNG) *graph.Graph {
	backbone := 8 + rng.Intn(6) // 8..13
	var cdf []motifProb
	if c == 0 {
		// "Mutagenic": aromatic rings dominate.
		cdf = []motifProb{{0.5, graph.MotifHexagon}, {0.8, graph.MotifPentagon}, {1, graph.MotifTriangle}}
	} else {
		cdf = []motifProb{{0.5, graph.MotifSquare}, {0.8, graph.MotifFusedSq}, {1, graph.MotifBranch}}
	}
	return graph.MotifChain(backbone, sampleMotifs(2, cdf, rng))
}

func genNCI1(c int, rng *hdc.RNG) *graph.Graph {
	backbone := 15 + rng.Intn(9) // 15..23
	var cdf []motifProb
	if c == 0 {
		cdf = []motifProb{{0.4, graph.MotifHexagon}, {0.7, graph.MotifBranch}, {1, graph.MotifTriangle}}
	} else {
		cdf = []motifProb{{0.4, graph.MotifSquare}, {0.7, graph.MotifBranch}, {1, graph.MotifPentagon}}
	}
	return graph.MotifChain(backbone, sampleMotifs(3, cdf, rng))
}

func genPTCFM(c int, rng *hdc.RNG) *graph.Graph {
	backbone := 7 + rng.Intn(5) // 7..11
	var cdf []motifProb
	if c == 0 {
		// Carcinogenic-like: ring motifs only (no leaves).
		cdf = []motifProb{{0.5, graph.MotifTriangle}, {0.8, graph.MotifPentagon}, {1, graph.MotifHexagon}}
	} else {
		// Leaf-heavy saturated compounds.
		cdf = []motifProb{{0.7, graph.MotifBranch}, {1, graph.MotifSquare}}
	}
	return graph.MotifChain(backbone, sampleMotifs(2, cdf, rng))
}

// --- protein-flavoured datasets: community structure ---------------------

// genPROTEINS contrasts modular graphs of small dense communities
// (class 0, "enzyme-like") with scale-free graphs of matched size and
// density (class 1). Matching the marginal statistics while differing in
// degree-distribution shape keeps the task non-trivial but learnable.
func genPROTEINS(c int, rng *hdc.RNG) *graph.Graph {
	// ±25% size jitter. The float64 conversions here and below round each
	// product before the add, so no compiler fuses them into one
	// multiply-add (Go does on arm64) and datasets match on every
	// architecture.
	scale := 0.75 + float64(rng.Float64()*0.5)
	if c == 0 {
		size := int(float64(10*scale) + 0.5)
		if size < 3 {
			size = 3
		}
		return graph.CommunityGraph([]int{size, size, size, size}, 0.35, 0.02, rng)
	}
	n := int(float64(39*scale) + 0.5)
	if n < 6 {
		n = 6
	}
	return graph.BarabasiAlbert(n, 2, rng)
}

// genENZYMES assigns one structural family per EC class.
func genENZYMES(c int, rng *hdc.RNG) *graph.Graph {
	scale := 0.75 + float64(rng.Float64()*0.5)
	n := int(float64(33*scale) + 0.5)
	if n < 8 {
		n = 8
	}
	switch c {
	case 0:
		return graph.ErdosRenyi(n, 0.118, rng)
	case 1:
		return graph.WattsStrogatz(n, 4, 0.1, rng)
	case 2:
		return graph.BarabasiAlbert(n, 2, rng)
	case 3:
		third := n / 3
		if third < 3 {
			third = 3
		}
		return graph.CommunityGraph([]int{third, third, third}, 0.33, 0.02, rng)
	case 4:
		return ringOfCliques(n/5, 5)
	default:
		rows := 4 + rng.Intn(3)
		cols := n / rows
		if cols < 2 {
			cols = 2
		}
		return graph.Grid(rows, cols)
	}
}

// ringOfCliques joins m s-cliques into a cycle with one bridge edge
// between consecutive cliques.
func ringOfCliques(m, s int) *graph.Graph {
	if m < 3 {
		m = 3
	}
	b := graph.NewBuilder(m * s)
	for ci := 0; ci < m; ci++ {
		base := ci * s
		for u := 0; u < s; u++ {
			for v := u + 1; v < s; v++ {
				b.MustAddEdge(base+u, base+v)
			}
		}
		nextBase := ((ci + 1) % m) * s
		b.MustAddEdge(base, nextBase+1)
	}
	return b.Build()
}

// genDD contrasts large modular graphs (class 0) with rings of 6-cliques
// (class 1) at matched size and density. The clique ring's rigid local
// structure is clearly separable from the softer community structure while
// both hit Table I's |V| ≈ 284, |E| ≈ 716.
func genDD(c int, rng *hdc.RNG) *graph.Graph {
	scale := 0.75 + float64(rng.Float64()*0.5)
	n := int(float64(284*scale) + 0.5)
	if c == 0 {
		comm := 8
		size := n / comm
		if size < 4 {
			size = 4
		}
		sizes := make([]int, comm)
		for i := range sizes {
			sizes[i] = size
		}
		return graph.CommunityGraph(sizes, 0.12, 0.004, rng)
	}
	return ringOfCliques(n/6, 6)
}

// --- Figure 4 scaling dataset --------------------------------------------

// Scaling builds the synthetic dataset of the paper's scalability
// experiment (Section V-B): `graphs` Erdős–Rényi graphs with n vertices
// each and edge probability 0.05, evenly split over 2 classes. The second
// class uses a slightly higher edge probability (0.06) so the task remains
// learnable without materially changing graph size, preserving the timing
// profile the experiment measures.
func Scaling(n, graphs int, seed uint64) *graph.Dataset {
	rng := hdc.NewRNG(seed ^ 0x5ca11e)
	ds := &graph.Dataset{
		Name:       fmt.Sprintf("ER-%d", n),
		ClassNames: []string{"0", "1"},
	}
	for i := 0; i < graphs; i++ {
		c := i % 2
		p := 0.05
		if c == 1 {
			p = 0.06
		}
		ds.Graphs = append(ds.Graphs, graph.ErdosRenyi(n, p, rng))
		ds.Labels = append(ds.Labels, c)
	}
	return ds
}

// ScalingSizes returns the vertex counts of the paper's Figure 4 sweep
// ("up to 980 vertices", log-spaced).
func ScalingSizes() []int {
	return []int{20, 40, 80, 160, 320, 640, 980}
}
