package graph

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// JSON wire codec for graphs, the request format of the serving subsystem
// (internal/serve). The wire form is deliberately minimal — a vertex count,
// an edge list, and optional categorical vertex labels — because that is
// exactly the information Enc_G consumes; everything else (CSR adjacency,
// sorted edge order) is derived on decode by the ordinary Builder, so a
// decoded graph is indistinguishable from one built in-process and the
// duplicate-edge / self-loop normalization rules are identical. The edge
// array, which is nearly all of a body's bytes, is scanned without
// reflection (see EdgeList); everything else is plain encoding/json.
//
//	{"num_vertices": 4, "edges": [[0,1],[1,2],[2,3]], "vertex_labels": [0,1,0,1]}

// GraphJSON is the wire representation of a Graph.
type GraphJSON struct {
	// NumVertices is |V|; vertices are the integers [0, NumVertices).
	NumVertices int `json:"num_vertices"`
	// Edges lists undirected edges as [u, v] pairs. Order is free;
	// duplicates and self-loops are dropped on decode, matching Builder.
	// EdgeList decodes the canonical [[u,v],…] form without reflection
	// and everything else exactly as a [][2]int field would.
	Edges EdgeList `json:"edges"`
	// VertexLabels optionally carries one categorical label per vertex
	// (the labeled-graph extension). Omitted for unlabeled graphs.
	VertexLabels []int `json:"vertex_labels,omitempty"`
}

// EdgeList is the wire form's edge array. It decodes to the values, and
// fails with the errors, of a [][2]int; its UnmarshalJSON only makes the
// common case cheap.
type EdgeList [][2]int

// UnmarshalJSON scans the canonical form — "[", zero or more "[u,v]"
// pairs of plain integers (an optional "-" and 1–18 digits, no fraction
// or exponent) separated by commas, then "]", with JSON whitespace
// anywhere — straight into an exactly sized slice, without reflection.
// Anything else ("null", floats, longer numbers, pairs of other lengths,
// objects, strings) is handed to encoding/json's own decode of *[][2]int,
// so what is accepted, the decoded values and the error text stay those
// of a plain [][2]int field.
//
// One difference is inherent to the hook: encoding/json returns an
// UnmarshalJSON error at once instead of saving it, so when a body holds
// a type error before a non-canonical edge array that holds one too, the
// edge array's error is reported rather than the earlier one, and an
// UnmarshalTypeError's Offset counts from the start of the edge array.
// Whether a body is accepted does not change.
func (e *EdgeList) UnmarshalJSON(data []byte) error {
	edges, ok := scanEdges(data)
	if ok {
		*e = edges
		return nil
	}
	if *e == nil {
		// Decode into the slice already sized for this array, so the
		// fallback allocates no more than the canonical path. A list
		// decoded earlier (a repeated key) is kept instead: encoding/json
		// decodes over it and leaves the old pair where an element is
		// null.
		*e = edges[:0]
	}
	return json.Unmarshal(data, (*[][2]int)(e))
}

// scanEdges parses the canonical edge-array form and reports false on
// anything else. The slice is sized from a count of '[' bytes, so a
// canonical list costs one allocation. On false it returns that slice,
// possibly part-filled, once it has been made, and nil before.
func scanEdges(data []byte) (EdgeList, bool) {
	i := skipSpace(data, 0)
	if i == len(data) || data[i] != '[' {
		return nil, false
	}
	edges := make(EdgeList, 0, bytes.Count(data[i+1:], []byte{'['}))
	i = skipSpace(data, i+1)
	if i < len(data) && data[i] == ']' {
		return edges, skipSpace(data, i+1) == len(data)
	}
	var u, v int
	var ok bool
	for {
		if u, i, ok = scanIntAfter(data, i, '['); !ok {
			return edges, false
		}
		v, i, ok = scanIntAfter(data, i, ',')
		if !ok || i == len(data) || data[i] != ']' {
			return edges, false
		}
		edges = append(edges, [2]int{u, v})
		i = skipSpace(data, i+1)
		if i == len(data) {
			return edges, false
		}
		switch data[i] {
		case ',':
			i = skipSpace(data, i+1)
		case ']':
			return edges, skipSpace(data, i+1) == len(data)
		default:
			return edges, false
		}
	}
}

// scanIntAfter expects delim at data[i], then an integer, each followed by
// optional whitespace, and returns the integer and the index after it all.
func scanIntAfter(data []byte, i int, delim byte) (int, int, bool) {
	if i == len(data) || data[i] != delim {
		return 0, i, false
	}
	x, i, ok := scanInt(data, skipSpace(data, i+1))
	return x, skipSpace(data, i), ok
}

// scanInt parses an optional '-' and 1–18 digits starting at data[i]
// (a leading zero is a whole number, as in JSON) and returns the value
// and the index after it. A value int cannot hold reports false.
func scanInt(data []byte, i int) (int, int, bool) {
	neg := i < len(data) && data[i] == '-'
	if neg {
		i++
	}
	start := i
	var x int64
	for i < len(data) && i-start < 18 && '0' <= data[i] && data[i] <= '9' {
		x = x*10 + int64(data[i]-'0')
		i++
		if x == 0 {
			break
		}
	}
	if i == start || int64(int(x)) != x {
		return 0, i, false
	}
	if neg {
		x = -x
	}
	return int(x), i, true
}

// skipSpace returns the index of the first non-whitespace byte at or
// after data[i], or len(data).
func skipSpace(data []byte, i int) int {
	for i < len(data) {
		switch data[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return i
		}
	}
	return i
}

// CodecLimits bounds what a decoded graph may look like, protecting a
// server from hostile or accidental oversized payloads. The zero value
// applies DefaultCodecLimits. The vertex cap matters beyond payload
// size: an Encoder lazily materializes and permanently keeps one packed
// basis hypervector per centrality rank, up to the largest vertex count
// it has encoded, so unbounded wire graphs would translate into
// unbounded server memory. There is no (rank, label) cache: a labeled
// graph's vertex hypervectors are generated into its encoding scratch's
// table, which the same cap bounds, so label values cost no memory.
type CodecLimits struct {
	// MaxVertices caps NumVertices; non-positive selects the default.
	MaxVertices int
	// MaxEdges caps len(Edges); non-positive selects the default.
	MaxEdges int
	// MaxVertexLabel caps each vertex label value (labels are also
	// required to be non-negative); non-positive selects the default.
	MaxVertexLabel int
}

// DefaultCodecLimits are generous for graph-classification workloads —
// Table-I graphs average a few hundred vertices, and the Figure 4 scaling
// study tops out at ~10^4 — while keeping the worst-case basis table a
// server can be forced to populate modest: at d = 10,000 a packed rank
// vector costs d/8 bytes, so MaxVertices of them take about 20.6 MB, and
// so does one encoding scratch's (rank, label) table at its largest.
var DefaultCodecLimits = CodecLimits{MaxVertices: 1 << 14, MaxEdges: 1 << 20, MaxVertexLabel: 1 << 16}

func (l CodecLimits) resolve() CodecLimits {
	if l.MaxVertices <= 0 {
		l.MaxVertices = DefaultCodecLimits.MaxVertices
	}
	if l.MaxEdges <= 0 {
		l.MaxEdges = DefaultCodecLimits.MaxEdges
	}
	if l.MaxVertexLabel <= 0 {
		l.MaxVertexLabel = DefaultCodecLimits.MaxVertexLabel
	}
	return l
}

// ToJSON converts g to its wire representation. The edge and label slices
// are freshly allocated; g is not retained.
func ToJSON(g *Graph) *GraphJSON {
	w := &GraphJSON{NumVertices: g.NumVertices(), Edges: make(EdgeList, g.NumEdges())}
	for i, e := range g.Edges() {
		w.Edges[i] = [2]int{int(e.U), int(e.V)}
	}
	if g.Labeled() {
		w.VertexLabels = make([]int, g.NumVertices())
		for v := range w.VertexLabels {
			w.VertexLabels[v] = g.VertexLabel(v)
		}
	}
	return w
}

// Graph validates the wire form against limits and builds the immutable
// in-memory graph. Errors name the offending field so a server can return
// them to the client verbatim.
func (w *GraphJSON) Graph(limits CodecLimits) (*Graph, error) {
	limits = limits.resolve()
	if w.NumVertices < 0 {
		return nil, fmt.Errorf("graph: negative num_vertices %d", w.NumVertices)
	}
	if w.NumVertices > limits.MaxVertices {
		return nil, fmt.Errorf("graph: num_vertices %d exceeds limit %d", w.NumVertices, limits.MaxVertices)
	}
	if len(w.Edges) > limits.MaxEdges {
		return nil, fmt.Errorf("graph: %d edges exceed limit %d", len(w.Edges), limits.MaxEdges)
	}
	if w.VertexLabels != nil && len(w.VertexLabels) != w.NumVertices {
		return nil, fmt.Errorf("graph: %d vertex_labels for %d vertices", len(w.VertexLabels), w.NumVertices)
	}
	for v, l := range w.VertexLabels {
		if l < 0 || l > limits.MaxVertexLabel {
			return nil, fmt.Errorf("graph: vertex_labels[%d] = %d outside [0, %d]", v, l, limits.MaxVertexLabel)
		}
	}
	b := newBuilderCap(w.NumVertices, len(w.Edges))
	for i, e := range w.Edges {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			return nil, fmt.Errorf("graph: edges[%d]: %w", i, err)
		}
	}
	if w.VertexLabels != nil {
		if err := b.SetVertexLabels(w.VertexLabels); err != nil {
			return nil, err
		}
	}
	return b.Build(), nil
}

// MarshalGraph writes g's wire form as JSON.
func MarshalGraph(g *Graph) ([]byte, error) {
	return json.Marshal(ToJSON(g))
}

// UnmarshalGraph parses a wire-form JSON document and builds the graph.
func UnmarshalGraph(data []byte, limits CodecLimits) (*Graph, error) {
	var w GraphJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("graph: decode JSON: %w", err)
	}
	return w.Graph(limits)
}

// DecodeGraph reads one wire-form JSON document from r and builds the
// graph.
func DecodeGraph(r io.Reader, limits CodecLimits) (*Graph, error) {
	var w GraphJSON
	if err := json.NewDecoder(r).Decode(&w); err != nil {
		return nil, fmt.Errorf("graph: decode JSON: %w", err)
	}
	return w.Graph(limits)
}
