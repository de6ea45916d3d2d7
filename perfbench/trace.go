package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// reqHeader carries the client's request id to the server side, so the
// client.request and serve.handler spans of one request can be joined.
const reqHeader = "X-Bench-Request"

// tracer keeps spans in memory for the whole run; write puts them out once
// the measurements are done. A nil *tracer records nothing, so untraced
// code paths pay one nil check.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// add records a finished span and returns its index, for use as a parent.
func (t *tracer) add(name string, start, end int64, parent int32, req uint64) int32 {
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: parent, Req: req})
	i := int32(len(t.spans) - 1)
	t.mu.Unlock()
	return i
}

// open records a span whose end is not known yet; close sets it.
func (t *tracer) open(name string, parent int32) int32 {
	if t == nil {
		return -1
	}
	return t.add(name, t.now(), 0, parent, 0)
}

func (t *tracer) close(i int32) {
	if t == nil {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[i].End = end
	t.mu.Unlock()
}

// timed runs f inside a span named name under parent.
func (t *tracer) timed(name string, parent int32, f func()) {
	if t == nil {
		f()
		return
	}
	i := t.open(name, parent)
	f()
	t.close(i)
}

// snapshot returns the spans recorded so far, with every serve.handler
// span parented to the client.request span of the same request id.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	client := map[uint64]int32{}
	for i, s := range spans {
		if s.Name == "client.request" {
			client[s.Req] = int32(i)
		}
	}
	for i, s := range spans {
		if s.Name == "serve.handler" {
			if p, ok := client[s.Req]; ok {
				spans[i].Parent = p
			}
		}
	}
	return spans
}

// write stores spans as gzip-compressed JSON lines, one span per line.
func write(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	zw, _ := gzip.NewWriterLevel(bw, gzip.BestSpeed) // BestSpeed is a valid level
	enc := json.NewEncoder(zw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanStats sums the durations of spans of one name.
type spanStats struct {
	n     int
	total int64 // nanoseconds
}

// statsByName aggregates spans by name.
func statsByName(spans []span) map[string]spanStats {
	out := map[string]spanStats{}
	for _, s := range spans {
		st := out[s.Name]
		st.n++
		st.total += s.End - s.Start
		out[s.Name] = st
	}
	return out
}

// netTime is the client.request self time: summed over every serve.handler
// span that snapshot joined to its client.request span, the client span's
// duration minus the handler's, with the number of joined pairs. It is the
// time a request spends in the HTTP client, the loopback and the server
// outside the handler.
func netTime(spans []span) (total int64, n int) {
	for _, s := range spans {
		if s.Name == "serve.handler" && s.Parent >= 0 {
			c := spans[s.Parent]
			total += (c.End - c.Start) - (s.End - s.Start)
			n++
		}
	}
	return total, n
}

// handlerSpans wraps the program's HTTP handler in a serve.handler span
// while a tracer is installed; with none it only forwards the request.
type handlerSpans struct {
	next http.Handler
	tr   atomic.Pointer[tracer]
}

func (h *handlerSpans) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := h.tr.Load()
	if tr == nil {
		h.next.ServeHTTP(w, r)
		return
	}
	start := tr.now()
	h.next.ServeHTTP(w, r)
	id, err := strconv.ParseUint(r.Header.Get(reqHeader), 10, 64)
	if err != nil {
		id = 0 // requests the load generator did not send (e.g. /metrics)
	}
	tr.add("serve.handler", start, tr.now(), -1, id)
}

// spanFile is where a traced run of workload under seed leaves its spans.
func spanFile(dir, workload string, seed uint64) string {
	return fmt.Sprintf("%s/spans-%s-seed%d.jsonl.gz", dir, workload, seed)
}
