package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"graphhd/internal/core"
	"graphhd/internal/dataset"
	"graphhd/internal/eval"
	"graphhd/internal/graph"
	"graphhd/internal/serve"
)

const (
	// clients is the closed loop's size: callers that each wait for their
	// reply before sending the next request, like a 2-connection pool.
	clients = 2
	// feedbackEvery makes every n-th serve-online request a feedback
	// sample carrying the graph's true label.
	feedbackEvery = 10
)

// stack is the program's serving tier as a deployment runs it: one model
// in a registry, a router and the HTTP handler, all at default options,
// on a loopback listener.
type stack struct {
	reg    *serve.Registry
	rt     *serve.Router
	spans  *handlerSpans
	srv    *http.Server
	served chan error
	url    string
	client *http.Client
}

// startStack serves pred as the default model; a non-nil trainModel is
// handed to an online trainer at default TrainerOptions.
func startStack(pred *core.Predictor, trainModel *core.Model) (*stack, error) {
	reg := serve.NewRegistry(serve.RegistryOptions{})
	if err := reg.Load("default", pred); err != nil {
		reg.Close()
		return nil, err
	}
	if trainModel != nil {
		if _, err := reg.AttachTrainer("default", trainModel, serve.TrainerOptions{}); err != nil {
			reg.Close()
			return nil, err
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		reg.Close()
		return nil, err
	}
	rt := serve.NewRouter(reg, serve.RouterOptions{})
	s := &stack{
		reg:    reg,
		rt:     rt,
		spans:  &handlerSpans{next: serve.NewHandler(rt, serve.HandlerOptions{})},
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     clients,
				MaxIdleConnsPerHost: clients,
				DisableCompression:  true,
			},
		},
	}
	s.srv = &http.Server{Handler: s.spans, ReadHeaderTimeout: 10 * time.Second}
	go func() { s.served <- s.srv.Serve(ln) }()
	return s, nil
}

// close stops the server, waits for it and for the registry's engines.
func (s *stack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.srv.Shutdown(ctx) // on timeout, Serve has still returned
	<-s.served
	s.client.CloseIdleConnections()
	s.reg.Close()
}

// scrape reads the handler's /metrics exposition into series → value.
func (s *stack) scrape() (map[string]float64, error) {
	resp, err := s.client.Get(s.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return parseExposition(string(body)), nil
}

// parseExposition maps each sample line `name{labels} value` of a
// Prometheus text exposition to its value.
func parseExposition(text string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// series sums the samples of family name whose labels contain every
// label in want (as `key="value"`).
func series(m map[string]float64, name string, want ...string) float64 {
	var sum float64
	for k, v := range m {
		labels, ok := strings.CutPrefix(k, name)
		if !ok || (labels != "" && labels[0] != '{') {
			continue
		}
		all := true
		for _, w := range want {
			all = all && strings.Contains(labels, w)
		}
		if all {
			sum += v
		}
	}
	return sum
}

// op is one request of the traffic cycle.
type op struct {
	path     string
	body     []byte
	idx      []int // indices of the graphs it carries in the traffic's set
	feedback bool
}

// traffic is a request cycle over a fixed set of graphs.
type traffic struct {
	ops    []op
	graphs []*graph.Graph
	labels []int
	// ref is the in-process predictor's class per graph; nil when served
	// answers may legitimately change (an online trainer promotes models).
	ref []int
	k   int
}

func predictOp(graphs []*graph.Graph, idx []int) (op, error) {
	if len(idx) == 1 {
		body, err := json.Marshal(serve.PredictRequest{Graph: graph.ToJSON(graphs[idx[0]])})
		return op{path: "/v1/predict", body: body, idx: idx}, err
	}
	req := serve.PredictBatchRequest{Graphs: make([]*graph.GraphJSON, len(idx))}
	for i, j := range idx {
		req.Graphs[i] = graph.ToJSON(graphs[j])
	}
	body, err := json.Marshal(req)
	return op{path: "/v1/predict/batch", body: body, idx: idx}, err
}

func feedbackOp(g *graph.Graph, label, i int) (op, error) {
	body, err := json.Marshal(serve.FeedbackRequest{Graph: graph.ToJSON(g), Label: &label})
	return op{path: "/v1/feedback", body: body, idx: []int{i}, feedback: true}, err
}

// drive measures one phase of the closed loop: /metrics is scraped before
// and after it, and the live heap is read once the callers have stopped.
func (s *stack) drive(t *traffic, count int, d time.Duration, tr *tracer) (*phase, error) {
	before, err := s.scrape()
	if err != nil {
		return nil, err
	}
	ph := s.loop(t, count, d, tr)
	ph.scrape[0] = before
	ph.heapMB = heapLiveMB()
	if ph.scrape[1], err = s.scrape(); err != nil {
		return nil, err
	}
	return ph, nil
}

// loop runs the closed loop: clients goroutines send the traffic's ops in
// cycle order, each waiting for its reply, until count ops were sent
// (count > 0) or d has passed.
func (s *stack) loop(t *traffic, count int, d time.Duration, tr *tracer) *phase {
	ph := &phase{}
	s.spans.tr.Store(tr)
	start := readProc()
	deadline := start.wall.Add(d)
	var next atomic.Int64
	callers := make([]phase, clients)
	var wg sync.WaitGroup
	for c := range callers {
		wg.Add(1)
		go func(cl *phase) {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				j := next.Add(1) - 1
				if count > 0 && j >= int64(count) || count == 0 && !time.Now().Before(deadline) {
					return
				}
				s.send(t, &t.ops[j%int64(len(t.ops))], uint64(j+1), &buf, cl, tr)
			}
		}(&callers[c])
	}
	wg.Wait()
	ph.whole = since(start)
	s.spans.tr.Store(nil)
	ph.work, ph.wall = ph.whole, ph.whole.wall
	for i := range callers {
		cl := &callers[i]
		ph.classified += cl.classified
		ph.correct += cl.correct
		ph.trained += cl.trained
		ph.attempted += cl.attempted
		ph.failed += cl.failed
		ph.wrong += cl.wrong
		ph.lat = append(ph.lat, cl.lat...)
	}
	return ph
}

// send posts one op, reads the whole reply and checks it.
func (s *stack) send(t *traffic, o *op, id uint64, buf *bytes.Buffer, cl *phase, tr *tracer) {
	cl.attempted++
	req, err := http.NewRequest(http.MethodPost, s.url+o.path, bytes.NewReader(o.body))
	if err != nil {
		cl.failed++
		return
	}
	req.Header.Set("Content-Type", "application/json")
	var spanStart int64
	if tr != nil {
		req.Header.Set(reqHeader, strconv.FormatUint(id, 10))
		spanStart = tr.now()
	}
	t0 := time.Now()
	resp, err := s.client.Do(req)
	if err == nil {
		buf.Reset()
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
	}
	el := time.Since(t0)
	if tr != nil {
		tr.add("client.request", spanStart, tr.now(), -1, id)
	}
	if err != nil || resp.StatusCode/100 != 2 {
		cl.failed++
		return
	}
	var reply struct {
		Class    *int  `json:"class"`
		Classes  []int `json:"classes"`
		Accepted int   `json:"accepted"`
	}
	if json.Unmarshal(buf.Bytes(), &reply) != nil {
		cl.failed++
		cl.wrong++
		return
	}
	if o.feedback {
		if reply.Accepted != len(o.idx) {
			cl.failed++
			return
		}
		cl.trained += len(o.idx)
		return
	}
	classes := reply.Classes
	if reply.Class != nil {
		classes = []int{*reply.Class}
	}
	if len(classes) != len(o.idx) {
		cl.failed++
		cl.wrong++
		return
	}
	for i, c := range classes {
		g := o.idx[i]
		if c < 0 || c >= t.k || t.ref != nil && c != t.ref[g] {
			cl.failed++
			cl.wrong++
			return
		}
	}
	for i, c := range classes {
		if c == t.labels[o.idx[i]] {
			cl.correct++
		}
	}
	cl.lat = append(cl.lat, float64(el.Nanoseconds())/1e3)
	cl.classified += len(classes)
}

// serveWorkload is a serve-* workload: the stack, its traffic, and what
// the traced run replays.
type serveWorkload struct {
	st      *stack
	traffic *traffic
	cfg     core.Config
	train   *graph.Dataset
	test    *graph.Dataset
	pred    *core.Predictor // the model as trained, before any feedback
}

func (w *serveWorkload) timed(d time.Duration, tr *tracer) (*phase, error) {
	return w.st.drive(w.traffic, 0, d, tr)
}

func (w *serveWorkload) close() { w.st.close() }

// setupOnline: NCI1 at paper scale, one stratified quarter held out as
// the traffic (a quarter rather than a CV tenth keeps accuracy steady from
// seed to seed). The trainer owns the trained model; the registry serves
// its snapshot.
func setupOnline(seed uint64) (workload, int, time.Duration, error) {
	ds, err := dataset.Generate("NCI1", dataset.Options{Seed: seed})
	if err != nil {
		return nil, 0, 0, err
	}
	train, test, err := holdOut(ds, 4, seed)
	if err != nil {
		return nil, 0, 0, err
	}
	cfg := core.DefaultConfig()
	t0 := time.Now()
	model, err := core.Train(cfg, train.Graphs, train.Labels)
	trainWall := time.Since(t0)
	if err != nil {
		return nil, 0, 0, err
	}
	pred := model.Snapshot()
	t := &traffic{graphs: test.Graphs, labels: test.Labels, k: pred.NumClasses()}
	n := len(test.Graphs)
	for i := 0; i < feedbackEvery*n; i++ {
		var o op
		if i%feedbackEvery == feedbackEvery-1 {
			o, err = feedbackOp(test.Graphs[i%n], test.Labels[i%n], i%n)
		} else {
			o, err = predictOp(test.Graphs, []int{i % n})
		}
		if err != nil {
			return nil, 0, 0, err
		}
		t.ops = append(t.ops, o)
	}
	st, err := startStack(pred, model)
	if err != nil {
		return nil, 0, 0, err
	}
	w := &serveWorkload{st: st, traffic: t, cfg: cfg, train: train, test: test, pred: pred}
	// One request per test graph warms the stack. The warm-up neither
	// scrapes /metrics nor forces a collection, so set-up time holds only
	// what a deployment would do.
	if ph := st.loop(t, n, 0, nil); ph.failed > 0 {
		w.close()
		return nil, 0, 0, fmt.Errorf("warm-up: %d of %d requests failed", ph.failed, ph.attempted)
	}
	return w, len(train.Graphs), trainWall, nil
}

// holdOut splits ds into stratified folds and holds the first out.
func holdOut(ds *graph.Dataset, folds int, seed uint64) (train, test *graph.Dataset, err error) {
	split, err := eval.StratifiedKFold(ds.Labels, folds, seed)
	if err != nil {
		return nil, nil, err
	}
	var trainIdx []int
	for _, f := range split[1:] {
		trainIdx = append(trainIdx, f...)
	}
	return ds.Subset(trainIdx), ds.Subset(split[0]), nil
}
