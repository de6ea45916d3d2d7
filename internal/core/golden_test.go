package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"graphhd/internal/dataset"
	"graphhd/internal/graph"
)

// TestGoldenHashes pins, at one seed, the sha256 of everything the
// pipeline's bit-identity claims cover: the TUDataset files datagen
// writes, every graph's centrality ranks and packed encoding, and the
// GRAPHHD1 and GRAPHHD2 artifacts of a trained model (and the GRAPHHD1 of
// a retrained one). The constants are golden: a kernel tier, a platform
// or a refactor that changes any bit of them fails here, so the suite
// means the same thing on every architecture and under every
// GRAPHHD_KERNEL setting.
func TestGoldenHashes(t *testing.T) {
	cases := []struct {
		name    string
		count   int
		labeled bool // label every vertex and encode under UseVertexLabels
	}{
		{name: "NCI1", count: 240},
		{name: "DD", count: 24},
		{name: "ENZYMES", count: 120},
		{name: "MUTAG", count: 80, labeled: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ds, err := dataset.Generate(tc.name, dataset.Options{Seed: 1, GraphCount: tc.count})
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig()
			if tc.labeled {
				ds = withGoldenLabels(t, ds)
				cfg.UseVertexLabels = true
			}
			got := [6]string{
				hashTUDataset(t, ds),
				goldenRanks(cfg, ds.Graphs),
				goldenEncodings(cfg, ds.Graphs),
			}
			m, err := Train(cfg, ds.Graphs, ds.Labels)
			if err != nil {
				t.Fatal(err)
			}
			got[3] = hashWriterTo(t, m)
			got[4] = hashWriterTo(t, m.Snapshot())
			if _, err := m.Retrain(ds.Graphs, ds.Labels, RetrainOptions{Epochs: 3}); err != nil {
				t.Fatal(err)
			}
			got[5] = hashWriterTo(t, m)
			want, ok := goldenWant[tc.name]
			if !ok {
				t.Fatalf("no golden hashes for %s; got %q", tc.name, got)
			}
			for i, what := range [6]string{"datagen output", "ranks", "encodings", "GRAPHHD1", "GRAPHHD2", "retrained GRAPHHD1"} {
				if got[i] != want[i] {
					t.Errorf("%s %s: sha256 %s, want %s", tc.name, what, got[i], want[i])
				}
			}
		})
	}
}

// goldenWant holds, per dataset, the sha256 of its datagen output, ranks,
// encodings, GRAPHHD1 and GRAPHHD2 artifacts, and retrained GRAPHHD1, in
// TestGoldenHashes's order.
var goldenWant = map[string][6]string{
	"NCI1": {
		"9a445e79784ba911ead1e0c537d3730d9c71213fbe13c246765bb2177c466b18",
		"23fc1d38b279d7cbc7b2690b31a1eb807ad1cc83235eb6f17ffc91c766c20390",
		"c0bcd3dd29a0a4e9efc388d0407a0dd5fffafdb0fb354b480f28214cfdd4917e",
		"60aad4995fa0aff5bb929954e02a93e8399df136c7d15ad4b4761174d519b3cd",
		"98bc37b7799755d9dcfb325ad2ed3a2f8199ab4d667ccb3f9b8f341a410b960a",
		"1e0b983b183457758451cfd765030d766613a20ba4a67f6a7c0dcc92be25e007",
	},
	"DD": {
		"9d69b8e6a2169514b259a9daa57e55636ecb0215a112395bf19752c8c93e98c4",
		"79c1715f28680ef82f6477ce5444c17848e643993898db05790e0317271d3239",
		"8600a59b001e26ba1088b40cfaf5bd8478eaa370119f5ced8f01225250ff1b6d",
		"64bb8eeed1bc3f0e5489bb04b03d567542293ce47a75fdf79d5f6f58abf90553",
		"568044f4468cd67b3e0f5fa6896d9eb866720262e1be7113f8bb32722db88554",
		"64bb8eeed1bc3f0e5489bb04b03d567542293ce47a75fdf79d5f6f58abf90553",
	},
	"ENZYMES": {
		"e61ec39d431b1d1786a7403408351a31e771756974b7d65703dcea2a3b9b1838",
		"b1c568eb00d273fe247441d51ec0f576d2c729b7acffe3ee388cdd117f09d5c7",
		"8c5cbe5a80647b9fe5e8f936fbbd81ab9d4ca5e052cf0b103333d5bc0f95d4e4",
		"74a0c75720d57dac452ebcf12a05113ed6f5fb93444c292e8aeac7fa84de9ac5",
		"5aaa04a8d7f55a6bbfe8effeeafd2995e04a080550d9c145eef3eea8afd8cc4f",
		"74a0c75720d57dac452ebcf12a05113ed6f5fb93444c292e8aeac7fa84de9ac5",
	},
	"MUTAG": {
		"a83caef0d8da8e9277f4799dd8ff2a4921e6aee5766b18ecc8ac7467609e88e7",
		"c5d9c47648d8316f62276db03923b06ecae898e566fb4f66d8f28db29518c29b",
		"3b4105be460595dd6534d090dd3b2e62ac9188b99ea98b64a04374b1a2bd96d5",
		"2f3fefa4db1cd87f6a591477fb332d0816187698b007d9d3b6a067a966c50fef",
		"eaf652789ee63b7be82ac8d26c24cc6d4b9b76b23bf24b83476763f529e12440",
		"2f3fefa4db1cd87f6a591477fb332d0816187698b007d9d3b6a067a966c50fef",
	},
}

// withGoldenLabels returns ds with vertex v of graph gi labeled
// (3v + gi) mod 5.
func withGoldenLabels(t *testing.T, ds *graph.Dataset) *graph.Dataset {
	t.Helper()
	out := *ds
	out.Graphs = make([]*graph.Graph, len(ds.Graphs))
	for gi, g := range ds.Graphs {
		b := graph.NewBuilder(g.NumVertices())
		for _, e := range g.Edges() {
			b.MustAddEdge(int(e.U), int(e.V))
		}
		vl := make([]int, g.NumVertices())
		for v := range vl {
			vl[v] = (3*v + gi) % 5
		}
		if err := b.SetVertexLabels(vl); err != nil {
			t.Fatal(err)
		}
		out.Graphs[gi] = b.Build()
	}
	return &out
}

// hashTUDataset writes ds as datagen does and hashes every file, in name
// order, as its name followed by its bytes.
func hashTUDataset(t *testing.T, ds *graph.Dataset) string {
	t.Helper()
	dir := t.TempDir()
	if err := graph.WriteTUDataset(dir, ds); err != nil {
		t.Fatal(err)
	}
	root := filepath.Join(dir, ds.Name)
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, e.Name())
	}
	slices.Sort(names)
	h := sha256.New()
	for _, name := range names {
		b, err := os.ReadFile(filepath.Join(root, name))
		if err != nil {
			t.Fatal(err)
		}
		h.Write([]byte(name))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenRanks hashes every graph's ranks as little-endian uint32s.
func goldenRanks(cfg Config, graphs []*graph.Graph) string {
	enc := MustNewEncoder(cfg)
	h := sha256.New()
	for _, g := range graphs {
		for _, r := range enc.Ranks(g) {
			h.Write(binary.LittleEndian.AppendUint32(nil, uint32(r)))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenEncodings hashes every graph's packed encoding as little-endian
// words.
func goldenEncodings(cfg Config, graphs []*graph.Graph) string {
	enc := MustNewEncoder(cfg)
	h := sha256.New()
	for _, g := range graphs {
		writeWords(h, enc.EncodeGraphPacked(g).Words())
	}
	return hex.EncodeToString(h.Sum(nil))
}

func writeWords(h hash.Hash, words []uint64) {
	for _, w := range words {
		h.Write(binary.LittleEndian.AppendUint64(nil, w))
	}
}

// hashWriterTo hashes the artifact w writes.
func hashWriterTo(t *testing.T, w io.WriterTo) string {
	t.Helper()
	h := sha256.New()
	if _, err := w.WriteTo(h); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}
