package graph

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func TestGraphJSONRoundTrip(t *testing.T) {
	b := NewBuilder(5)
	b.MustAddEdge(0, 1)
	b.MustAddEdge(1, 2)
	b.MustAddEdge(3, 4)
	g := b.Build()

	data, err := MarshalGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalGraph(data, CodecLimits{})
	if err != nil {
		t.Fatal(err)
	}
	if back.NumVertices() != g.NumVertices() || back.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip changed shape: got %v want %v", back, g)
	}
	for i, e := range back.Edges() {
		if e != g.Edges()[i] {
			t.Fatalf("edge %d: got %v want %v", i, e, g.Edges()[i])
		}
	}
	if back.Labeled() {
		t.Fatal("unlabeled graph came back labeled")
	}
}

func TestGraphJSONRoundTripLabeled(t *testing.T) {
	b := NewBuilder(3)
	b.MustAddEdge(0, 1)
	b.MustAddEdge(1, 2)
	if err := b.SetVertexLabels([]int{7, 8, 7}); err != nil {
		t.Fatal(err)
	}
	g := b.Build()

	data, err := MarshalGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "vertex_labels") {
		t.Fatalf("labels missing from wire form %s", data)
	}
	back, err := UnmarshalGraph(data, CodecLimits{})
	if err != nil {
		t.Fatal(err)
	}
	if !back.Labeled() {
		t.Fatal("labels lost in round trip")
	}
	for v := 0; v < g.NumVertices(); v++ {
		if back.VertexLabel(v) != g.VertexLabel(v) {
			t.Fatalf("vertex %d label: got %d want %d", v, back.VertexLabel(v), g.VertexLabel(v))
		}
	}
}

func TestGraphJSONNormalizesLikeBuilder(t *testing.T) {
	// Duplicates, reversed orientation and self-loops all normalize away,
	// exactly as Builder.AddEdge does.
	g, err := UnmarshalGraph([]byte(`{"num_vertices":3,"edges":[[1,0],[0,1],[2,2],[1,2]]}`), CodecLimits{})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("got %d edges, want 2", g.NumEdges())
	}
}

func TestGraphJSONRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		lim  CodecLimits
	}{
		{"negative vertices", `{"num_vertices":-1,"edges":[]}`, CodecLimits{}},
		{"edge out of range", `{"num_vertices":2,"edges":[[0,2]]}`, CodecLimits{}},
		{"negative endpoint", `{"num_vertices":2,"edges":[[-1,0]]}`, CodecLimits{}},
		{"label count mismatch", `{"num_vertices":2,"edges":[],"vertex_labels":[1]}`, CodecLimits{}},
		{"too many vertices", `{"num_vertices":100,"edges":[]}`, CodecLimits{MaxVertices: 10}},
		{"too many edges", `{"num_vertices":3,"edges":[[0,1],[1,2]]}`, CodecLimits{MaxEdges: 1}},
		{"negative label", `{"num_vertices":1,"edges":[],"vertex_labels":[-1]}`, CodecLimits{}},
		{"label over limit", `{"num_vertices":1,"edges":[],"vertex_labels":[9]}`, CodecLimits{MaxVertexLabel: 8}},
		{"not JSON", `{`, CodecLimits{}},
	}
	for _, tc := range cases {
		if _, err := UnmarshalGraph([]byte(tc.doc), tc.lim); err == nil {
			t.Errorf("%s: decode succeeded, want error", tc.name)
		}
	}
}

func TestGraphJSONEmptyGraph(t *testing.T) {
	g, err := UnmarshalGraph([]byte(`{"num_vertices":0,"edges":[]}`), CodecLimits{})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty graph decoded as %v", g)
	}
	// And it re-encodes to valid JSON.
	if _, err := json.Marshal(ToJSON(g)); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeGraphReader(t *testing.T) {
	g, err := DecodeGraph(strings.NewReader(`{"num_vertices":2,"edges":[[0,1]]}`), CodecLimits{})
	if err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge(0, 1) {
		t.Fatal("edge lost through reader decode")
	}
}

// TestEdgeListScanner pins which edge arrays take the reflection-free
// path: the canonical ones must scan to exactly what encoding/json
// decodes, and everything else must be left to encoding/json.
func TestEdgeListScanner(t *testing.T) {
	canonical := []string{
		`[]`,
		` [ ] `,
		`[[0,1]]`,
		"\t[ [ 3 ,\n 2 ] , [-0,0],[-7 ,123456789012345678]\r]\n",
		`[[-123456789012345678,0]]`,
	}
	for _, in := range canonical {
		got, ok := scanEdges([]byte(in))
		if !ok {
			t.Errorf("%q: not scanned as canonical", in)
			continue
		}
		var want [][2]int
		if err := json.Unmarshal([]byte(in), &want); err != nil {
			t.Fatalf("%q: %v", in, err)
		}
		if !reflect.DeepEqual([][2]int(got), want) {
			t.Errorf("%q: scanned %v, encoding/json decodes %v", in, got, want)
		}
	}
	fallback := []string{
		``, `null`, `{}`, `"[[0,1]]"`, `[0,1]`, `[[0]]`, `[[0,1,2]]`, `[[]]`,
		`[[0,1.0]]`, `[[0,1e0]]`, `[[0,1E0]]`, `[[0,"1"]]`, `[[0,null]]`,
		`[[0,1234567890123456789]]`, `[[0,01]]`, `[[0,-]]`, `[[0,+1]]`,
		`[[0,1],]`, `[[0,1]`, `[[0,1]]x`, `[[0,1][2,3]]`, `[,[0,1]]`,
	}
	for _, in := range fallback {
		if got, ok := scanEdges([]byte(in)); ok {
			t.Errorf("%q: scanned as canonical to %v", in, got)
		}
	}
}
