package serve

import (
	"context"
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// promSample is one parsed exposition sample: metric name, sorted label
// pairs, and value.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// parsePromText is a strict parser for the Prometheus text exposition
// format (version 0.0.4) subset WriteRouterMetrics emits. It enforces the
// format contract a real scraper relies on — any deviation fails the
// test with a line-numbered error:
//
//   - every sample line is `name value` or `name{k="v",...} value`
//   - every family has exactly one # HELP and one # TYPE line, both
//     before its first sample
//   - a family's samples are contiguous (no interleaving)
//   - label values are properly quoted, values parse as Go floats
func parsePromText(t *testing.T, text string) []promSample {
	t.Helper()
	var samples []promSample
	helped := map[string]bool{}
	typed := map[string]string{}
	seen := map[string]bool{} // families with at least one sample
	lastFamily := ""
	family := func(name string) string {
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, suf)
			if typed[base] == "histogram" {
				return base
			}
		}
		return name
	}
	for i, line := range strings.Split(text, "\n") {
		lineNo := i + 1
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			rest := strings.TrimPrefix(line, "# HELP ")
			name, _, ok := strings.Cut(rest, " ")
			if !ok {
				t.Fatalf("line %d: HELP without docstring: %q", lineNo, line)
			}
			if helped[name] {
				t.Fatalf("line %d: duplicate HELP for %s", lineNo, name)
			}
			if seen[name] {
				t.Fatalf("line %d: HELP for %s after its samples", lineNo, name)
			}
			helped[name] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 {
				t.Fatalf("line %d: malformed TYPE: %q", lineNo, line)
			}
			name, typ := fields[0], fields[1]
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Fatalf("line %d: unknown TYPE %q for %s", lineNo, typ, name)
			}
			if _, dup := typed[name]; dup {
				t.Fatalf("line %d: duplicate TYPE for %s", lineNo, name)
			}
			if seen[name] {
				t.Fatalf("line %d: TYPE for %s after its samples", lineNo, name)
			}
			typed[name] = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("line %d: unrecognized comment: %q", lineNo, line)
		}

		s := promSample{labels: map[string]string{}}
		rest := line
		if open := strings.IndexByte(rest, '{'); open >= 0 {
			s.name = rest[:open]
			close := strings.LastIndexByte(rest, '}')
			if close < open {
				t.Fatalf("line %d: unclosed label set: %q", lineNo, line)
			}
			for _, pair := range splitLabels(t, lineNo, rest[open+1:close]) {
				k, v, ok := strings.Cut(pair, "=")
				if !ok {
					t.Fatalf("line %d: malformed label %q", lineNo, pair)
				}
				uq, err := strconv.Unquote(v)
				if err != nil {
					t.Fatalf("line %d: label %s value not quoted: %q", lineNo, k, v)
				}
				if _, dup := s.labels[k]; dup {
					t.Fatalf("line %d: duplicate label %s", lineNo, k)
				}
				s.labels[k] = uq
			}
			rest = rest[close+1:]
		} else {
			var ok bool
			s.name, rest, ok = strings.Cut(rest, " ")
			if !ok {
				t.Fatalf("line %d: sample without value: %q", lineNo, line)
			}
			rest = " " + rest
		}
		valStr := strings.TrimSpace(rest)
		v, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("line %d: bad value %q: %v", lineNo, valStr, err)
		}
		s.value = v

		fam := family(s.name)
		if !helped[fam] {
			t.Fatalf("line %d: sample %s before # HELP %s", lineNo, s.name, fam)
		}
		if _, ok := typed[fam]; !ok {
			t.Fatalf("line %d: sample %s before # TYPE %s", lineNo, s.name, fam)
		}
		if seen[fam] && fam != lastFamily {
			t.Fatalf("line %d: family %s interleaved (reopened after %s)", lineNo, fam, lastFamily)
		}
		seen[fam] = true
		lastFamily = fam
		samples = append(samples, s)
	}
	for name := range helped {
		if _, ok := typed[name]; !ok {
			t.Fatalf("HELP without TYPE for %s", name)
		}
		if !seen[name] {
			t.Fatalf("family %s declared but has no samples", name)
		}
	}
	return samples
}

// splitLabels splits a label body on commas outside quoted values.
func splitLabels(t *testing.T, lineNo int, body string) []string {
	t.Helper()
	var out []string
	inQuote, escaped, start := false, false, 0
	for i := 0; i < len(body); i++ {
		c := body[i]
		switch {
		case escaped:
			escaped = false
		case c == '\\':
			escaped = true
		case c == '"':
			inQuote = !inQuote
		case c == ',' && !inQuote:
			out = append(out, body[start:i])
			start = i + 1
		}
	}
	if inQuote {
		t.Fatalf("line %d: unterminated quote in labels %q", lineNo, body)
	}
	if start < len(body) {
		out = append(out, body[start:])
	}
	return out
}

// checkHistogram validates one (possibly labeled) histogram series:
// cumulative non-decreasing le buckets, a +Inf bucket, +Inf == _count,
// and a _sum consistent with the observation count.
func checkHistogram(t *testing.T, samples []promSample, name string, want map[string]string) {
	t.Helper()
	match := func(s promSample) bool {
		for k, v := range want {
			if s.labels[k] != v {
				return false
			}
		}
		return true
	}
	type bkt struct {
		le  float64
		cum float64
	}
	var buckets []bkt
	var sum, count float64
	var haveSum, haveCount, haveInf bool
	for _, s := range samples {
		switch s.name {
		case name + "_bucket":
			if !match(s) {
				continue
			}
			le := s.labels["le"]
			if le == "" {
				t.Fatalf("%s: bucket without le label: %v", name, s.labels)
			}
			if le == "+Inf" {
				haveInf = true
				buckets = append(buckets, bkt{math.Inf(1), s.value})
				continue
			}
			f, err := strconv.ParseFloat(le, 64)
			if err != nil {
				t.Fatalf("%s: unparseable le %q", name, le)
			}
			buckets = append(buckets, bkt{f, s.value})
		case name + "_sum":
			if !match(s) {
				continue
			}
			sum, haveSum = s.value, true
		case name + "_count":
			if !match(s) {
				continue
			}
			count, haveCount = s.value, true
		}
	}
	if len(buckets) == 0 {
		t.Fatalf("%s%v: no buckets found", name, want)
	}
	if !haveInf {
		t.Fatalf("%s%v: no +Inf bucket", name, want)
	}
	if !haveSum || !haveCount {
		t.Fatalf("%s%v: missing _sum or _count", name, want)
	}
	if !sort.SliceIsSorted(buckets, func(i, j int) bool { return buckets[i].le < buckets[j].le }) {
		t.Fatalf("%s%v: le bounds not sorted: %v", name, want, buckets)
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i].cum < buckets[i-1].cum {
			t.Fatalf("%s%v: buckets not cumulative at le=%v: %v < %v",
				name, want, buckets[i].le, buckets[i].cum, buckets[i-1].cum)
		}
	}
	if inf := buckets[len(buckets)-1].cum; inf != count {
		t.Fatalf("%s%v: +Inf bucket %v != _count %v", name, want, inf, count)
	}
	if count > 0 && sum < 0 {
		t.Fatalf("%s%v: negative sum %v with %v observations", name, want, sum, count)
	}
}

// findSample returns the value of the first sample named name whose
// labels include every pair in labels.
func findSample(samples []promSample, name string, labels map[string]string) (float64, bool) {
	for _, s := range samples {
		if s.name != name {
			continue
		}
		match := true
		for k, v := range labels {
			if s.labels[k] != v {
				match = false
				break
			}
		}
		if match {
			return s.value, true
		}
	}
	return 0, false
}

// checkBuildInfo asserts the exposition carries exactly one
// graphhd_build_info sample, valued 1, labeled with the Go toolchain
// version and a (possibly empty) VCS revision.
func checkBuildInfo(t *testing.T, samples []promSample) {
	t.Helper()
	var bi []promSample
	for _, s := range samples {
		if s.name == "graphhd_build_info" {
			bi = append(bi, s)
		}
	}
	if len(bi) != 1 {
		t.Fatalf("graphhd_build_info: want 1 sample, got %d", len(bi))
	}
	if bi[0].value != 1 {
		t.Errorf("graphhd_build_info value = %v, want 1", bi[0].value)
	}
	if gv := bi[0].labels["go_version"]; gv == "" || !strings.HasPrefix(gv, "go") {
		t.Errorf("graphhd_build_info go_version = %q, want go toolchain version", gv)
	}
	if _, ok := bi[0].labels["vcs_revision"]; !ok {
		t.Errorf("graphhd_build_info missing vcs_revision label")
	}
}

// TestWriteMetricsExposition round-trips the exposition of a
// single-model deployment (the default graphhd-serve shape) through the
// strict parser after real traffic, so every stage series has
// observations. It checks the engine counters and model gauges, the
// histogram contract on every per-engine family (including the
// batch-size histogram), the stage counts, the build-info gauge, and
// that exactly the plan, encode and classify stages are rendered.
func TestWriteMetricsExposition(t *testing.T) {
	pred, ds := testModel(t, 2048, 1)
	reg := NewRegistry(RegistryOptions{
		Engine: Options{Workers: 2, MaxBatch: 8},
	})
	defer reg.Close()
	if err := reg.Load("m", pred); err != nil {
		t.Fatal(err)
	}
	rt := NewRouter(reg, RouterOptions{DefaultModel: "m"})
	if _, err := rt.PredictBatch(context.Background(), "", "m", ds.Graphs); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := WriteRouterMetrics(&sb, rt); err != nil {
		t.Fatal(err)
	}
	samples := parsePromText(t, sb.String())

	slot := map[string]string{"model": "m"}
	for _, c := range []struct {
		name   string
		labels map[string]string
	}{
		{"graphhd_requests_total", slot},
		{"graphhd_graphs_processed_total", slot},
		{"graphhd_model_dimension", map[string]string{"model": "m"}},
		{"graphhd_kernel_info", nil},
	} {
		if _, ok := findSample(samples, c.name, c.labels); !ok {
			t.Errorf("missing metric %s%v", c.name, c.labels)
		}
	}

	checkBuildInfo(t, samples)

	checkHistogram(t, samples, "graphhd_request_latency_seconds", slot)
	checkHistogram(t, samples, "graphhd_batch_size", slot)
	checkHistogram(t, samples, "graphhd_queue_wait_seconds", slot)
	for _, stage := range []string{"plan", "encode", "classify"} {
		checkHistogram(t, samples, "graphhd_stage_seconds",
			map[string]string{"model": "m", "stage": stage})
	}
	for _, s := range samples {
		if st := s.labels["stage"]; strings.HasPrefix(s.name, "graphhd_stage_seconds") &&
			st != "plan" && st != "encode" && st != "classify" {
			t.Errorf("unexpected stage series %s%v", s.name, s.labels)
		}
		if strings.HasPrefix(s.name, "graphhd_cascade_") {
			t.Errorf("removed family rendered: %s%v", s.name, s.labels)
		}
	}

	// The batch ran through the engine, so the mandatory stage series
	// must have counted it; queue wait is observed per task.
	for _, stage := range []string{"plan", "encode", "classify"} {
		n, _ := findSample(samples, "graphhd_stage_seconds_count",
			map[string]string{"model": "m", "stage": stage})
		if n == 0 {
			t.Errorf("graphhd_stage_seconds_count{stage=%q} = 0 after traffic", stage)
		}
	}
}

// TestWriteRouterMetricsExposition round-trips the multi-model exposition
// through a strict text-exposition parser: two models, both with
// traffic, plus a quota rejection,
// checking the registry/tenant families, the {model} labeling of every
// engine counter and histogram, the stage-clock counts, the per-model
// gauges, the build-info labels, and the family-major contiguity the
// parser enforces.
func TestWriteRouterMetricsExposition(t *testing.T) {
	predA, ds := testModel(t, 2048, 1)
	predB, _ := testModel(t, 1024, 2)
	reg := NewRegistry(RegistryOptions{
		Engine: Options{Workers: 2, MaxBatch: 8},
	})
	defer reg.Close()
	if err := reg.Load("alpha", predA); err != nil {
		t.Fatal(err)
	}
	if err := reg.Load("beta", predB); err != nil {
		t.Fatal(err)
	}
	rt := NewRouter(reg, RouterOptions{DefaultModel: "alpha", TenantQuota: 8})
	ctx := context.Background()
	if _, err := rt.PredictBatch(ctx, "t1", "alpha", ds.Graphs[:8]); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.PredictBatch(ctx, "t1", "beta", ds.Graphs[:4]); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.PredictBatch(ctx, "greedy", "alpha", ds.Graphs[:9]); err == nil {
		t.Fatal("over-quota batch was admitted")
	}

	var sb strings.Builder
	if err := WriteRouterMetrics(&sb, rt); err != nil {
		t.Fatal(err)
	}
	samples := parsePromText(t, sb.String())

	find := func(name string, labels map[string]string) (float64, bool) {
		return findSample(samples, name, labels)
	}

	if v, ok := find("graphhd_models_resident", nil); !ok || v != 2 {
		t.Errorf("graphhd_models_resident = %v (found %v), want 2", v, ok)
	}
	if v, ok := find("graphhd_registry_bytes", nil); !ok || v != float64(predA.MemoryBytes()+predB.MemoryBytes()) {
		t.Errorf("graphhd_registry_bytes = %v (found %v)", v, ok)
	}
	if _, ok := find("graphhd_registry_evictions_total", nil); !ok {
		t.Error("graphhd_registry_evictions_total missing")
	}
	if v, ok := find("graphhd_quota_rejected_total", map[string]string{"tenant": "greedy"}); !ok || v != 1 {
		t.Errorf(`graphhd_quota_rejected_total{tenant="greedy"} = %v (found %v), want 1`, v, ok)
	}
	if v, ok := find("graphhd_quota_rejected_total", map[string]string{"tenant": "t1"}); !ok || v != 0 {
		t.Errorf(`graphhd_quota_rejected_total{tenant="t1"} = %v (found %v), want 0`, v, ok)
	}
	if v, ok := find("graphhd_tenant_inflight_graphs", map[string]string{"tenant": "t1"}); !ok || v != 0 {
		t.Errorf(`graphhd_tenant_inflight_graphs{tenant="t1"} = %v (found %v), want 0`, v, ok)
	}

	// Every model carries the full engine counter set, and its accepted
	// total equals the routed traffic.
	for _, model := range []string{"alpha", "beta"} {
		labels := map[string]string{"model": model}
		accepted, ok := find("graphhd_graphs_accepted_total", labels)
		if !ok {
			t.Fatalf("graphhd_graphs_accepted_total missing for %v", labels)
		}
		for _, name := range []string{"graphhd_requests_total", "graphhd_graphs_processed_total", "graphhd_queue_depth"} {
			if _, ok := find(name, labels); !ok {
				t.Errorf("%s missing for %v", name, labels)
			}
		}
		checkHistogram(t, samples, "graphhd_request_latency_seconds", labels)
		checkHistogram(t, samples, "graphhd_queue_wait_seconds", labels)
		stages := []string{"plan", "encode", "classify"}
		for _, stage := range stages {
			sl := map[string]string{"model": model, "stage": stage}
			checkHistogram(t, samples, "graphhd_stage_seconds", sl)
		}
		want := 8.0
		if model == "beta" {
			want = 4
		}
		if accepted != want {
			t.Errorf("model %s accepted %v graphs, want %v", model, accepted, want)
		}

		// The batches ran through the engines, so each stage series must
		// have counted them.
		for _, stage := range stages {
			n, _ := find("graphhd_stage_seconds_count", map[string]string{"model": model, "stage": stage})
			if n == 0 {
				t.Errorf("graphhd_stage_seconds_count{model=%q,stage=%q} = 0 after traffic", model, stage)
			}
		}
	}

	// Engine series carry exactly the model label.
	for _, s := range samples {
		if s.name == "graphhd_requests_total" && len(s.labels) != 1 {
			t.Errorf("graphhd_requests_total labels %v, want {model} only", s.labels)
		}
	}

	// Per-model gauges carry the model label only.
	if v, ok := find("graphhd_model_dimension", map[string]string{"model": "beta"}); !ok || v != 1024 {
		t.Errorf(`graphhd_model_dimension{model="beta"} = %v (found %v), want 1024`, v, ok)
	}
	if v, ok := find("graphhd_model_version", map[string]string{"model": "alpha"}); !ok || v != 1 {
		t.Errorf(`graphhd_model_version{model="alpha"} = %v (found %v), want 1`, v, ok)
	}
	if _, ok := find("graphhd_kernel_info", nil); !ok {
		t.Error("graphhd_kernel_info missing from router exposition")
	}
	checkBuildInfo(t, samples)
}

// TestWriteRouterMetricsTrainerFamilies round-trips the online-learning
// families through the strict parser with a trainer attached: the
// feedback/trainer counters and the revision gauges must all render
// family-major with {model} labels — and none of them may appear when no
// trainer exists (a declared family with zero series violates the
// exposition contract, which is exactly what the trainer-less
// TestWriteRouterMetricsExposition above pins). The candidate gate is the
// holdout pass alone, so no graphhd_shadow_ family renders.
func TestWriteRouterMetricsTrainerFamilies(t *testing.T) {
	m, ds := trainableModel(t, 1024, false)
	reg := NewRegistry(RegistryOptions{Engine: Options{Workers: 1}})
	defer reg.Close()
	if err := reg.Load("alpha", m.Snapshot()); err != nil {
		t.Fatal(err)
	}
	rt := NewRouter(reg, RouterOptions{DefaultModel: "alpha"})
	tr, err := reg.AttachTrainer("alpha", m, TrainerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := tr.Feed(ds.Graphs[i], ds.Labels[i]); err != nil {
			t.Fatal(err)
		}
	}

	var sb strings.Builder
	if err := WriteRouterMetrics(&sb, rt); err != nil {
		t.Fatal(err)
	}
	samples := parsePromText(t, sb.String())
	byName := map[string][]promSample{}
	for _, s := range samples {
		byName[s.name] = append(byName[s.name], s)
	}
	for _, name := range []string{
		"graphhd_feedback_ingested_total", "graphhd_feedback_dropped_total",
		"graphhd_trainer_updates_total", "graphhd_trainer_snapshots_total",
		"graphhd_trainer_promotions_total", "graphhd_trainer_rollbacks_total",
		"graphhd_trainer_buffer_len", "graphhd_trainer_model_revision",
		"graphhd_model_revision",
	} {
		ss := byName[name]
		if len(ss) == 0 {
			t.Errorf("missing trainer family %s", name)
			continue
		}
		if ss[0].labels["model"] != "alpha" {
			t.Errorf("%s labels = %v, want model=\"alpha\"", name, ss[0].labels)
		}
	}
	if strings.Contains(sb.String(), "graphhd_shadow_") {
		t.Error("a graphhd_shadow_ family rendered, want none")
	}

	got := 0.0
	for _, s := range byName["graphhd_feedback_ingested_total"] {
		got = s.value
	}
	if got != 4 {
		t.Errorf("graphhd_feedback_ingested_total = %v, want 4", got)
	}
}

// TestHistogramBucketBranchFree cross-checks the unrolled 16-bound
// bucket search against a straightforward linear scan, including the
// v == bound edge (bounds are inclusive upper limits: v lands in the
// bucket whose bound equals v) and both tails.
func TestHistogramBucketBranchFree(t *testing.T) {
	var h histogram
	h.init(powerBounds(250e-9, 16))
	if h.b16 == nil {
		t.Fatal("16-bound histogram did not take the unrolled path")
	}
	ref := func(v float64) int {
		i := 0
		for i < len(h.bounds) && v > h.bounds[i] {
			i++
		}
		return i
	}
	var vals []float64
	vals = append(vals, 0, -1, 1e-12, 1, math.Inf(1))
	for _, b := range h.bounds {
		vals = append(vals, b, math.Nextafter(b, 0), math.Nextafter(b, math.Inf(1)))
	}
	for _, v := range vals {
		if got, want := h.bucket(v), ref(v); got != want {
			t.Errorf("bucket(%g) = %d, want %d", v, got, want)
		}
	}

	// And a non-16-bound histogram must fall back to the loop with the
	// same semantics.
	var h5 histogram
	h5.init([]float64{1, 2, 4, 8, 16})
	for v, want := range map[float64]int{0.5: 0, 1: 0, 1.5: 1, 16: 4, 17: 5} {
		if got := h5.bucket(v); got != want {
			t.Errorf("5-bound bucket(%g) = %d, want %d", v, got, want)
		}
	}
}

// TestHistogramObserveSum drives concurrent observes and checks the
// CAS-accumulated sum and total count stay exact (the sum previously
// used a racy read-modify-write).
func TestHistogramObserveSum(t *testing.T) {
	var h histogram
	h.init(powerBounds(1, 16))
	const workers, per = 8, 1000
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < per; i++ {
				h.observe(2.0)
			}
		}()
	}
	for w := 0; w < workers; w++ {
		<-done
	}
	s := h.snapshot()
	if want := uint64(workers * per); s.Count != want {
		t.Fatalf("count = %d, want %d", s.Count, want)
	}
	if want := float64(workers*per) * 2.0; s.Sum != want {
		t.Fatalf("sum = %v, want %v (lost updates)", s.Sum, want)
	}
	var bucketTotal uint64
	for _, c := range s.Counts {
		bucketTotal += c
	}
	if bucketTotal != s.Count {
		t.Fatalf("bucket total %d != count %d", bucketTotal, s.Count)
	}
}

// TestHistogramQuantile checks the interpolation estimator on a known
// distribution and its edge cases (empty, +Inf bucket).
func TestHistogramQuantile(t *testing.T) {
	empty := HistogramSnapshot{Bounds: []float64{1, 2}, Counts: []uint64{0, 0, 0}}
	if q := empty.Quantile(0.5); !math.IsNaN(q) {
		t.Errorf("empty quantile = %v, want NaN", q)
	}

	// 100 observations uniform in (0, 10]: bounds 10/20/40, all in the
	// first bucket. Median interpolates to the bucket midpoint.
	s := HistogramSnapshot{
		Bounds: []float64{10, 20, 40},
		Counts: []uint64{100, 0, 0, 0},
		Count:  100,
		Sum:    500,
	}
	if q := s.Quantile(0.5); math.Abs(q-5) > 1e-9 {
		t.Errorf("median = %v, want 5", q)
	}
	if q := s.Quantile(1); math.Abs(q-10) > 1e-9 {
		t.Errorf("p100 = %v, want 10", q)
	}

	// Observations beyond the last bound land in +Inf; quantiles there
	// clamp to the highest finite bound rather than inventing a value.
	inf := HistogramSnapshot{
		Bounds: []float64{10, 20},
		Counts: []uint64{0, 0, 50},
		Count:  50,
	}
	if q := inf.Quantile(0.99); q != 20 {
		t.Errorf("+Inf-bucket quantile = %v, want 20", q)
	}

	// Split across two buckets: 50 in (0,10], 50 in (10,20] — p75 is
	// the midpoint of the second bucket.
	split := HistogramSnapshot{
		Bounds: []float64{10, 20},
		Counts: []uint64{50, 50, 0},
		Count:  100,
	}
	if q := split.Quantile(0.75); math.Abs(q-15) > 1e-9 {
		t.Errorf("p75 = %v, want 15", q)
	}
}

// TestQuantileMatchesObservations sanity-checks Quantile against a live
// histogram fed a known ramp.
func TestQuantileMatchesObservations(t *testing.T) {
	var h histogram
	h.init(powerBounds(1, 16))
	for i := 1; i <= 1000; i++ {
		h.observe(float64(i) / 100) // 0.01 .. 10
	}
	med := h.snapshot().Quantile(0.5)
	if med < 2 || med > 8 {
		t.Fatalf("median of ramp = %v, want within (2, 8)", med)
	}
}
