// Package parallel provides the shared worker-pool primitive used by every
// data-parallel loop in the repository: batch encoding, batch prediction
// and cross-validation fold execution. HDC workloads are embarrassingly
// parallel across samples, so a single dynamic-scheduling ForEach covers
// all of them without per-call goroutine tuning.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a requested worker count: non-positive means
// GOMAXPROCS, and the result is clamped to n so short inputs never spawn
// idle goroutines.
func Workers(requested, n int) int {
	w := requested
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// ForEach runs fn(i) for every i in [0, n), distributing indices across up
// to workers goroutines (non-positive workers means GOMAXPROCS). Indices
// are handed out dynamically, so uneven per-item cost — large graphs next
// to small ones, heavyweight folds next to cheap ones — still balances.
// ForEach returns after every call completes. fn must be safe to call
// concurrently; writing to disjoint slice elements indexed by i is the
// intended result-collection pattern.
func ForEach(workers, n int, fn func(i int)) {
	ForEachWorker(workers, n, func(_, i int) { fn(i) })
}

// ForEachWorker is ForEach for loop bodies that keep per-worker scratch
// state: fn additionally receives the worker index w in
// [0, Workers(workers, n)), and all calls sharing one w are made
// sequentially from a single goroutine. Callers index a slice of
// Workers(workers, n) scratch values by w to reuse buffers across items
// without synchronization — the pattern the encoder's batch APIs use for
// allocation-free encoding.
func ForEachWorker(workers, n int, fn func(w, i int)) {
	if n <= 0 {
		return
	}
	w := Workers(workers, n)
	if w == 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func(worker int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(worker, i)
			}
		}(g)
	}
	wg.Wait()
}

// ForEachChunk is ForEachWorker for loop bodies that amortize work across
// a *range* of items: fn(w, lo, hi) is called for contiguous index ranges
// [lo, hi) of size up to chunk covering [0, n), ranges are handed out
// dynamically across up to workers goroutines, and all calls sharing one
// worker index w run sequentially on a single goroutine. This is the
// distribution primitive behind the chunked batch encoders (Model.Fit,
// Predictor.PredictAll), which check one pooled encoder scratch out per
// chunk. A non-positive chunk selects a single range per call.
func ForEachChunk(workers, n, chunk int, fn func(w, lo, hi int)) {
	if n <= 0 {
		return
	}
	if chunk <= 0 || chunk > n {
		chunk = n
	}
	chunks := (n + chunk - 1) / chunk
	ForEachWorker(workers, chunks, func(w, i int) {
		lo := i * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		fn(w, lo, hi)
	})
}
