package graph_test

import (
	"testing"

	"graphhd/internal/dataset"
	"graphhd/internal/graph"
	"graphhd/internal/hdc"
)

// TestBuildMatchesOracleAllDatasets rebuilds every graph of the six
// synthetic datasets from a shuffled edge list with reversed and repeated
// edges and self-loops, through the Builder and through the oracle. Both
// must reproduce the dataset's graph exactly.
func TestBuildMatchesOracleAllDatasets(t *testing.T) {
	rng := hdc.NewRNG(29)
	for _, name := range dataset.Names() {
		ds := dataset.MustGenerate(name, dataset.Options{Seed: 7, GraphCount: 300})
		for gi, g := range ds.Graphs {
			var pairs [][2]int
			for _, e := range g.Edges() {
				u, v := int(e.U), int(e.V)
				if rng.Intn(2) == 0 {
					u, v = v, u
				}
				pairs = append(pairs, [2]int{u, v})
				if rng.Intn(4) == 0 {
					pairs = append(pairs, [2]int{v, u})
				}
			}
			if n := g.NumVertices(); n > 0 {
				u := rng.Intn(n)
				pairs = append(pairs, [2]int{u, u})
			}
			for i, j := range rng.Perm(len(pairs)) {
				pairs[i], pairs[j] = pairs[j], pairs[i]
			}
			var labels []int
			if g.Labeled() {
				labels = make([]int, g.NumVertices())
				for v := range labels {
					labels[v] = g.VertexLabel(v)
				}
			}
			b := graph.NewBuilder(g.NumVertices())
			for _, p := range pairs {
				b.MustAddEdge(p[0], p[1])
			}
			if labels != nil {
				if err := b.SetVertexLabels(labels); err != nil {
					t.Fatal(err)
				}
			}
			if diff := graph.SameGraph(b.Build(), g); diff != "" {
				t.Fatalf("%s graph %d: Builder %s differs from the dataset graph", name, gi, diff)
			}
			if diff := graph.SameGraph(graph.OracleBuild(g.NumVertices(), pairs, labels), g); diff != "" {
				t.Fatalf("%s graph %d: oracle %s differs from the dataset graph", name, gi, diff)
			}
		}
	}
}

// BenchmarkUnmarshalGraph decodes and builds NCI1-shaped wire bodies, the
// graph-side cost a serving front end pays per request before GraphHD
// runs.
func BenchmarkUnmarshalGraph(b *testing.B) {
	ds := dataset.MustGenerate("NCI1", dataset.Options{Seed: 7, GraphCount: 256})
	bodies := make([][]byte, len(ds.Graphs))
	for i, g := range ds.Graphs {
		body, err := graph.MarshalGraph(g)
		if err != nil {
			b.Fatal(err)
		}
		bodies[i] = body
	}
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		if _, err := graph.UnmarshalGraph(bodies[i%len(bodies)], graph.CodecLimits{}); err != nil {
			b.Fatal(err)
		}
		i++
	}
}
