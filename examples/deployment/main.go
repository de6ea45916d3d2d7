// Deployment: the embedded/IoT story that motivates the paper. A model is
// trained "in the datacenter", collapsed to a bit-packed query predictor,
// serialized to a few-KB file, reloaded as if on a device, and then
// queried while hypervector memory suffers random bit-flips. The demo
// shows all three deployment wins at once: the tiny packed model footprint
// (majority-voted class vectors at one bit per component; basis vectors
// regenerate from the seed), the popcount-Hamming query path that never
// unpacks a hypervector, and the holographic robustness HDC promises for
// faulty hardware.
//
// The final act is the online story: the same packed artifact is mounted
// behind the HTTP server (internal/serve, the engine under
// cmd/graphhd-serve), a batch of graphs goes over the wire as JSON, and
// the served classes are asserted identical to the offline packed path.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"

	"graphhd"
	"graphhd/internal/graph"
	"graphhd/internal/serve"
)

func main() {
	// --- datacenter side -------------------------------------------------
	train := graphhd.MustGenerateDataset("MUTAG", graphhd.DatasetOptions{Seed: 9})
	cfg := graphhd.DefaultConfig()
	cfg.Dimension = 4096
	model, err := graphhd.Train(cfg, train.Graphs, train.Labels)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := model.Retrain(train.Graphs, train.Labels, graphhd.RetrainOptions{Epochs: 5}); err != nil {
		log.Fatal(err)
	}

	dir, err := os.MkdirTemp("", "graphhd-deploy")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Full model (live int32 accumulators, can keep learning) vs packed
	// predictor (majority-voted bit vectors, query only): the deployment
	// artifact is ~32× smaller on disk and 32× smaller in memory.
	fullPath := filepath.Join(dir, "model.ghd")
	if err := model.SaveFile(fullPath); err != nil {
		log.Fatal(err)
	}
	packed := model.Snapshot()
	packedPath := filepath.Join(dir, "model.ghdp")
	if err := packed.SaveFile(packedPath); err != nil {
		log.Fatal(err)
	}
	fullInfo, err := os.Stat(fullPath)
	if err != nil {
		log.Fatal(err)
	}
	packedInfo, err := os.Stat(packedPath)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("model footprint before packing: %6d bytes on disk, %6d bytes of query memory\n",
		fullInfo.Size(), model.MemoryBytes())
	fmt.Printf("model footprint after packing:  %6d bytes on disk, %6d bytes of query memory (%.1f× smaller)\n",
		packedInfo.Size(), packed.MemoryBytes(),
		float64(model.MemoryBytes())/float64(packed.MemoryBytes()))

	// --- device side ------------------------------------------------------
	device, err := graphhd.LoadPredictorFile(packedPath)
	if err != nil {
		log.Fatal(err)
	}
	test := graphhd.MustGenerateDataset("MUTAG", graphhd.DatasetOptions{Seed: 90, GraphCount: 80})

	preds := device.PredictAll(test.Graphs)
	correct := 0
	for i, p := range preds {
		if p == test.Labels[i] {
			correct++
		}
	}
	fmt.Printf("device accuracy, clean memory:      %.3f\n", float64(correct)/float64(test.Len()))

	// Simulate faulty hypervector memory: flip a fraction of each packed
	// query encoding's bits before the associative-memory lookup. The
	// encoding stays bit-packed end to end — corruption is a word-level
	// XOR away, and classification degrades gracefully.
	rng := graphhd.NewRNG(123)
	enc := device.Encoder()
	for _, flip := range []float64{0.10, 0.25} {
		correct := 0
		for i, g := range test.Graphs {
			hv := enc.EncodeGraphPacked(g)
			for _, idx := range rng.Perm(hv.Dim())[:int(flip*float64(hv.Dim()))] {
				hv.Flip(idx)
			}
			if device.PredictEncoded(hv) == test.Labels[i] {
				correct++
			}
		}
		fmt.Printf("device accuracy, %2.0f%% bits flipped: %.3f\n",
			flip*100, float64(correct)/float64(test.Len()))
	}

	// --- serving side -----------------------------------------------------
	// Mount the same artifact behind the online inference server and check
	// that a batch served over HTTP is bit-identical to the offline path.
	registry := serve.NewRegistry(serve.RegistryOptions{})
	defer registry.Close()
	if err := registry.LoadFile("default", packedPath); err != nil {
		log.Fatal(err)
	}
	router := serve.NewRouter(registry, serve.RouterOptions{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: serve.NewHandler(router, serve.HandlerOptions{
		ClassNames: test.ClassNames,
	})}
	go srv.Serve(ln)
	defer srv.Close()
	base := "http://" + ln.Addr().String()

	req := serve.PredictBatchRequest{Graphs: make([]*graph.GraphJSON, test.Len())}
	for i, g := range test.Graphs {
		req.Graphs[i] = graph.ToJSON(g)
	}
	body, err := json.Marshal(req)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/predict/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		log.Fatalf("predict/batch: status %d, err %v: %s", resp.StatusCode, err, raw)
	}
	var batch serve.PredictBatchResponse
	if err := json.Unmarshal(raw, &batch); err != nil {
		log.Fatal(err)
	}
	for i, c := range batch.Classes {
		if c != preds[i] {
			log.Fatalf("served class %d for graph %d; offline path said %d", c, i, preds[i])
		}
	}
	fmt.Printf("served %d graphs over HTTP (%s): all classes match the offline packed path\n",
		len(batch.Classes), base)

	var card serve.ModelInfo
	if resp, err = http.Get(base + "/v1/model"); err != nil {
		log.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&card)
	resp.Body.Close()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("model card: d=%d, %d classes, %d bytes packed, centrality=%s\n",
		card.Dimension, card.Classes, card.MemoryBytes, card.Centrality)
}
