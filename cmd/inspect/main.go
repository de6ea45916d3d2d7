// Command inspect prints structural analysis of a TUDataset-format
// dataset — Table-I statistics, extended measures (diameter, clustering,
// degeneracy, triangles), per-class breakdowns and, optionally, the
// centrality profile of a single graph — or, with -model, the card of a
// saved model artifact; the inspection companion to cmd/graphhd.
//
// Usage:
//
//	inspect -data ./data -name MUTAG
//	inspect -data ./data -name MUTAG -graph 3          # one graph in depth
//	inspect -data ./data -name MUTAG -per-class
//	inspect -model model.ghdp                          # model artifact card
//	inspect -traces http://127.0.0.1:8080              # server flight recorder
//	inspect -models http://127.0.0.1:8080              # server registry table
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"graphhd"
	"graphhd/internal/centrality"
	"graphhd/internal/core"
	"graphhd/internal/graph"
	"graphhd/internal/serve"
)

func main() {
	var (
		data      = flag.String("data", ".", "directory containing the dataset folder")
		name      = flag.String("name", "", "dataset name (required unless -model is given)")
		graphIdx  = flag.Int("graph", -1, "inspect a single graph by index")
		perClass  = flag.Bool("per-class", false, "break extended statistics down by class")
		modelPath = flag.String("model", "", "inspect a saved model artifact (any record version) instead of a dataset")
		tracesURL = flag.String("traces", "", "dump the flight recorder of a running graphhd-serve (base URL, e.g. http://127.0.0.1:8080)")
		modelsURL = flag.String("models", "", "dump the model registry of a running graphhd-serve (base URL, e.g. http://127.0.0.1:8080)")
	)
	flag.Parse()
	if *tracesURL != "" {
		inspectTraces(*tracesURL)
		return
	}
	if *modelsURL != "" {
		inspectModels(*modelsURL)
		return
	}
	if *modelPath != "" {
		inspectModel(*modelPath)
		return
	}
	if *name == "" {
		fmt.Fprintln(os.Stderr, "inspect: -name is required")
		flag.Usage()
		os.Exit(2)
	}
	ds, err := graphhd.ReadTUDataset(*data, *name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "inspect:", err)
		os.Exit(1)
	}

	if *graphIdx >= 0 {
		inspectGraph(ds, *graphIdx)
		return
	}

	st := graph.ComputeExtendedStats(ds)
	fmt.Printf("dataset %s\n", st.Name)
	fmt.Printf("  graphs: %d   classes: %d\n", st.Graphs, st.Classes)
	fmt.Printf("  avg |V|: %.2f (max %d)   avg |E|: %.2f (max %d)\n",
		st.AvgVertices, st.MaxVertices, st.AvgEdges, st.MaxEdges)
	fmt.Printf("  avg density: %.4f   avg diameter: %.2f\n", st.AvgDensity, st.AvgDiameter)
	fmt.Printf("  avg clustering: %.3f   avg degeneracy: %.2f   avg triangles: %.1f\n",
		st.AvgClustering, st.AvgDegeneracy, st.AvgTriangles)
	fmt.Printf("  class sizes: %v\n", st.PerClass)

	if *perClass {
		fmt.Println()
		for c := 0; c < ds.NumClasses(); c++ {
			var idx []int
			for i, l := range ds.Labels {
				if l == c {
					idx = append(idx, i)
				}
			}
			sub := ds.Subset(idx)
			sub.Name = fmt.Sprintf("%s[class %s]", ds.Name, ds.ClassNames[c])
			cst := graph.ComputeExtendedStats(sub)
			fmt.Printf("%-22s |V| %7.2f  |E| %8.2f  diam %6.2f  clus %6.3f  core %5.2f  tri %7.1f\n",
				cst.Name, cst.AvgVertices, cst.AvgEdges, cst.AvgDiameter,
				cst.AvgClustering, cst.AvgDegeneracy, cst.AvgTriangles)
		}
	}
}

// inspectModel prints the card of a saved model artifact: dimension,
// classes, packed query footprint and encoder configuration.
func inspectModel(path string) {
	pred, err := core.LoadPredictorFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "inspect:", err)
		os.Exit(1)
	}
	cfg := pred.Encoder().Config()
	fmt.Printf("model %s\n", path)
	fmt.Printf("  dimension: %d   classes: %d\n", pred.Dimension(), pred.NumClasses())
	fmt.Printf("  packed footprint: %d bytes (%d per class vector)\n",
		pred.MemoryBytes(), pred.MemoryBytes()/pred.NumClasses())
	fmt.Printf("  centrality: %s   pagerank iters: %d   damping: %.2f\n",
		cfg.Centrality, cfg.PageRankIterations, cfg.PageRankDamping)
	fmt.Printf("  seed: %#x   vertex labels: %v\n", cfg.Seed, cfg.UseVertexLabels)
}

// inspectTraces fetches a running server's flight recorder
// (GET /debug/traces) and prints the retained per-batch records as a
// table, newest first: where each batch's microseconds went
// (queue/plan/encode/classify) and its size in graphs.
func inspectTraces(base string) {
	url := strings.TrimRight(base, "/") + "/debug/traces"
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		fmt.Fprintln(os.Stderr, "inspect:", err)
		os.Exit(1)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fmt.Fprintf(os.Stderr, "inspect: GET %s: %s\n", url, resp.Status)
		os.Exit(1)
	}
	var tr serve.TracesResponse
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		fmt.Fprintf(os.Stderr, "inspect: decode %s: %v\n", url, err)
		os.Exit(1)
	}
	fmt.Printf("flight recorder at %s: %d of %d records retained\n",
		base, len(tr.Traces), tr.Depth)
	if len(tr.Traces) == 0 {
		return
	}
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	fmt.Printf("%8s %-15s %6s %9s %8s %8s %9s %9s %s\n",
		"seq", "time", "graphs", "queue_us", "plan_us",
		"enc_us", "class_us", "total_us", "kern")
	for _, r := range tr.Traces {
		fmt.Printf("%8d %-15s %6d %9.1f %8.1f %8.1f %9.1f %9.1f %s\n",
			r.Seq, r.Time.Format("15:04:05.000"), r.BatchSize,
			us(r.QueueWaitNanos), us(r.PlanNanos),
			us(r.EncodeNanos), us(r.ClassifyNanos),
			us(r.TotalNanos), r.Kernel)
	}
}

// inspectModels fetches a running server's registry table
// (GET /v1/models) and prints one row per model — name, version,
// dimension, classes, packed bytes — with its engine's
// in-flight/accepted/processed counts, plus the tenant admission
// accounts.
func inspectModels(base string) {
	url := strings.TrimRight(base, "/") + "/v1/models"
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		fmt.Fprintln(os.Stderr, "inspect:", err)
		os.Exit(1)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fmt.Fprintf(os.Stderr, "inspect: GET %s: %s\n", url, resp.Status)
		os.Exit(1)
	}
	var mr serve.ModelsResponse
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		fmt.Fprintf(os.Stderr, "inspect: decode %s: %v\n", url, err)
		os.Exit(1)
	}
	reg := mr.Registry
	budget := "unbounded"
	if reg.MaxBytes > 0 {
		budget = fmt.Sprintf("%d", reg.MaxBytes)
	}
	fmt.Printf("registry at %s: %d models, %d bytes resident (budget %s), %d evicted, default %q\n",
		base, len(reg.Models), reg.TotalBytes, budget, reg.Evictions, mr.DefaultModel)
	if len(reg.Models) > 0 {
		fmt.Printf("%-16s %4s %4s %7s %7s %9s %s\n",
			"model", "ver", "rev", "dim", "classes", "bytes", "inflight/accepted/processed")
		for _, m := range reg.Models {
			fmt.Printf("%-16s %4d %4d %7d %7d %9d %d/%d/%d\n",
				m.Name, m.Version, m.Revision, m.Dimension, m.Classes, m.PackedBytes,
				m.InFlight, m.Accepted, m.Processed)
		}
	}
	if len(mr.Trainers) > 0 {
		fmt.Println("online trainers:")
		for _, tr := range mr.Trainers {
			fmt.Printf("  %-16s buffer %d/%d   ingested %d (dropped %d)   trained %d (updates %d)   holdout %d\n",
				tr.Model, tr.BufferLen, tr.BufferCap, tr.Ingested, tr.Dropped, tr.Trained, tr.Updates, tr.Holdout)
			fmt.Printf("  %-16s revision %d (serving %d)   snapshots %d   promotions %d   rollbacks %d\n",
				"", tr.Revision, tr.ServingRevision, tr.Snapshots, tr.Promotions, tr.Rollbacks)
			if tr.LastOutcome != "" {
				fmt.Printf("  %-16s last: %s (%s)\n", "", tr.LastOutcome, tr.LastOutcomeTime.Format("15:04:05"))
			}
		}
	}
	if len(mr.Tenants) > 0 {
		fmt.Println("tenants:")
		for _, t := range mr.Tenants {
			fmt.Printf("  %-16s in-flight %6d   quota-rejected %6d\n", t.Tenant, t.InFlight, t.Rejected)
		}
	}
}

// inspectGraph prints one graph's structural profile including centrality
// rankings under all supported metrics.
func inspectGraph(ds *graphhd.Dataset, idx int) {
	if idx >= ds.Len() {
		fmt.Fprintf(os.Stderr, "inspect: graph %d out of range [0,%d)\n", idx, ds.Len())
		os.Exit(1)
	}
	g := ds.Graphs[idx]
	fmt.Printf("graph %d of %s (class %s)\n", idx, ds.Name, ds.ClassNames[ds.Labels[idx]])
	fmt.Printf("  |V| = %d, |E| = %d, density %.4f\n", g.NumVertices(), g.NumEdges(), g.Density())
	nc, _ := g.ConnectedComponents()
	fmt.Printf("  components: %d   diameter: %d   triangles: %d\n", nc, g.Diameter(), g.Triangles())
	fmt.Printf("  max degree: %d   degeneracy: %d   avg clustering: %.3f\n",
		g.MaxDegree(), g.Degeneracy(), g.AverageClustering())
	fmt.Printf("  degree histogram: %v\n", g.DegreeHistogram())

	fmt.Println("  most central vertices (rank 0..4):")
	for _, m := range centrality.AllMetrics() {
		ranks := centrality.Ranks(g, m, centrality.Options{})
		top := make([]int, 0, 5)
		for want := 0; want < 5 && want < len(ranks); want++ {
			for v, r := range ranks {
				if r == want {
					top = append(top, v)
					break
				}
			}
		}
		fmt.Printf("    %-12s %v\n", m, top)
	}
}
