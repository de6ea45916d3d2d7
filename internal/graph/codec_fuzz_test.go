package graph

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// FuzzGraphCodec is the differential fuzz target for the JSON wire codec,
// the byte surface the serving subsystem exposes to untrusted clients.
// Arbitrary bytes are decoded under both the default and a deliberately
// tight CodecLimits; whatever the input, decoding must never panic, limit
// violations must surface as errors, and any accepted graph must satisfy
// the decode→encode→decode fixpoint: re-encoding the decoded graph and
// decoding it again reproduces the same wire bytes and the same graph.
// (The first encode is not compared to the input — the wire form is not
// canonical: key order, whitespace, duplicate edges and self-loops all
// normalize on decode.)
//
// Run with `go test -fuzz FuzzGraphCodec ./internal/graph` for continuous
// fuzzing; the seed corpus under testdata/fuzz/FuzzGraphCodec plus the
// f.Add seeds run in normal test mode.
func FuzzGraphCodec(f *testing.F) {
	f.Add([]byte(`{"num_vertices":4,"edges":[[0,1],[1,2],[2,3]]}`))
	f.Add([]byte(`{"num_vertices":3,"edges":[[0,1],[1,0],[2,2]],"vertex_labels":[5,0,7]}`))
	f.Add([]byte(`{"num_vertices":0,"edges":[]}`))
	f.Add([]byte(`{"num_vertices":-1}`))
	f.Add([]byte(`{"num_vertices":1e99}`))
	f.Add([]byte(`{"edges":[[0,0,0]]}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(`{"num_vertices":2,"vertex_labels":[1]}`))
	tight := CodecLimits{MaxVertices: 6, MaxEdges: 4, MaxVertexLabel: 3}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, limits := range []CodecLimits{{}, tight} {
			g, err := UnmarshalGraph(data, limits)
			if err != nil {
				continue // rejected inputs must only ever error, not panic
			}
			resolved := limits.resolve()
			if g.NumVertices() > resolved.MaxVertices {
				t.Fatalf("accepted graph with %d vertices over limit %d", g.NumVertices(), resolved.MaxVertices)
			}
			if g.NumEdges() > resolved.MaxEdges {
				t.Fatalf("accepted graph with %d edges over limit %d", g.NumEdges(), resolved.MaxEdges)
			}
			wire1, err := MarshalGraph(g)
			if err != nil {
				t.Fatalf("re-encoding accepted graph: %v", err)
			}
			g2, err := UnmarshalGraph(wire1, limits)
			if err != nil {
				t.Fatalf("decoding own encoding under the same limits: %v\nwire: %s", err, wire1)
			}
			wire2, err := MarshalGraph(g2)
			if err != nil {
				t.Fatalf("re-encoding round-tripped graph: %v", err)
			}
			if !bytes.Equal(wire1, wire2) {
				t.Fatalf("encode/decode fixpoint violated:\nfirst:  %s\nsecond: %s", wire1, wire2)
			}
			if !graphsEqual(g, g2) {
				t.Fatalf("round-tripped graph differs from original\nwire: %s", wire1)
			}
		}
	})
}

// graphsEqual compares vertex counts, edge lists and labels.
func graphsEqual(a, b *Graph) bool {
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		return false
	}
	ae, be := a.Edges(), b.Edges()
	for i := range ae {
		if ae[i] != be[i] {
			return false
		}
	}
	// Labeledness may legitimately differ for the empty-label edge case
	// (omitempty drops a zero-length label list), but per-vertex labels
	// must agree whenever there are vertices.
	for v := 0; v < a.NumVertices(); v++ {
		if a.VertexLabel(v) != b.VertexLabel(v) {
			return false
		}
	}
	return true
}

// graphJSONMirror is GraphJSON with a plain [][2]int edge field: the
// reflection decode the EdgeList hook must reproduce.
type graphJSONMirror struct {
	NumVertices  int      `json:"num_vertices"`
	Edges        [][2]int `json:"edges"`
	VertexLabels []int    `json:"vertex_labels,omitempty"`
}

// edgesOnlyMirror decodes nothing but the edge field, so its error is the
// first type error among the body's edge arrays.
type edgesOnlyMirror struct {
	Edges [][2]int `json:"edges"`
}

// FuzzEdgeList is the differential fuzz target for the EdgeList decode
// hook. For any valid JSON, decoding into GraphJSON and into the hook-free
// mirror must both succeed with equal values or both fail with the same
// error text, the mirror's struct name aside. The one allowed difference
// is the one documented on EdgeList.UnmarshalJSON: when the mirror's
// first error lies in another field, the hook reports the first error of
// the edge arrays instead.
//
// Run with `go test -fuzz FuzzEdgeList ./internal/graph` for continuous
// fuzzing.
func FuzzEdgeList(f *testing.F) {
	for _, edges := range []string{
		`[[0,1],[1,2],[2,3]]`,
		" [ [0 ,1] ,\n\t[ 1, 2 ]\r\n ] ",
		`[[0,0,0]]`,
		`[[0]]`,
		`null`,
		`[[-0,1]]`,
		`[[0,1.5]]`,
		`[[1e3,0]]`,
		`[[0,12345678901234567890]]`,
	} {
		f.Add([]byte(`{"num_vertices":4,"edges":` + edges + `}`))
	}
	f.Add([]byte(`{"num_vertices":4,"edges":[[0,1]],"edges":[[2,3],[1,2]]}`))
	f.Add([]byte(`{"num_vertices":4,"edges":[[0,1]],"edges":null}`))
	f.Add([]byte(`{"num_vertices":4,"edges":[[0,1],[2,3]],"edges":[null,[1,2],null]}`))
	f.Add([]byte(`{"num_vertices":4,"EDGES":[[0,1]],"vertex_labels":[1,2,3,4]}`))
	f.Add([]byte(`{"num_vertices":"4","edges":[[0,1.0]]}`))
	replacer := strings.NewReplacer("graphJSONMirror", "GraphJSON", "edgesOnlyMirror", "GraphJSON")
	f.Fuzz(func(t *testing.T, data []byte) {
		if !json.Valid(data) {
			return
		}
		var got GraphJSON
		var want graphJSONMirror
		gotErr := json.Unmarshal(data, &got)
		wantErr := json.Unmarshal(data, &want)
		switch {
		case gotErr == nil && wantErr == nil:
			if got.NumVertices != want.NumVertices ||
				!reflect.DeepEqual([][2]int(got.Edges), want.Edges) ||
				!reflect.DeepEqual(got.VertexLabels, want.VertexLabels) {
				t.Fatalf("decoded %+v, reflection decodes %+v", got, want)
			}
		case gotErr != nil && wantErr != nil:
			if gotErr.Error() == replacer.Replace(wantErr.Error()) {
				return
			}
			var edgesOnly edgesOnlyMirror
			edgesErr := json.Unmarshal(data, &edgesOnly)
			if edgesErr == nil || gotErr.Error() != replacer.Replace(edgesErr.Error()) {
				t.Fatalf("error %q, reflection reports %q", gotErr, wantErr)
			}
		default:
			t.Fatalf("error %v, reflection reports %v", gotErr, wantErr)
		}
	})
}
