// Command benchjson converts `go test -bench` output on stdin into a
// machine-readable JSON array on stdout, one object per benchmark result:
//
//	{"package": "graphhd/internal/core", "name": "BenchmarkEncodeScratchPacked-4",
//	 "ns_per_op": 34357, "b_per_op": 0, "allocs_per_op": 0, "kernel": "avx512"}
//
// b_per_op / allocs_per_op are -1 when the benchmark did not report
// allocations. Malformed numeric fields and benchmark lines appearing
// before any `pkg:` header are reported as errors (exit status 1) rather
// than silently producing zeroed or unattributed results — CI consumes
// this output as an artifact, and a silently wrong artifact is worse
// than a failed job. The CI benchmark-smoke job pipes the Encode/Predict/
// ServePredict benchmarks through this tool into BENCH_<pr>.json so the
// perf trajectory of the hot paths is tracked from every run.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"strconv"
	"strings"

	"graphhd/internal/hdc"
)

// Result is one parsed benchmark line. Kernel records the SIMD kernel
// tier active in the process that emitted the benchmark output (numbers
// from different tiers are not comparable), so BENCH_*.json artifacts
// carry their own provenance.
type Result struct {
	Package     string  `json:"package"`
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BPerOp      int64   `json:"b_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	Kernel      string  `json:"kernel,omitempty"`
	// Metrics carries any custom b.ReportMetric columns — ns/graph and
	// the stage medians on the batch benchmarks — keyed by their unit
	// string.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

var (
	benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+([\d.]+) ns/op(.*)$`)
	pkgLine   = regexp.MustCompile(`^pkg:\s+(\S+)$`)
	bPerOp    = regexp.MustCompile(`([\d.]+) B/op`)
	allocsOp  = regexp.MustCompile(`(\d+) allocs/op`)
	metricCol = regexp.MustCompile(`([\d.]+) (\S+)`)
)

// run parses benchmark output from r and writes the JSON array to w.
// kernel, when non-empty, is stamped on every result; main passes the
// tier the benchmarks ran under (benchjson runs in the same pipeline, on
// the same machine, with the same GRAPHHD_KERNEL environment).
func run(r io.Reader, w io.Writer, kernel string) error {
	results := []Result{}
	pkg := ""
	lineNo := 0
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if m := pkgLine.FindStringSubmatch(line); m != nil {
			pkg = m[1]
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		if pkg == "" {
			return fmt.Errorf("line %d: benchmark %q before any pkg: header; results would be unattributed", lineNo, m[1])
		}
		iters, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			return fmt.Errorf("line %d: iterations %q: %w", lineNo, m[2], err)
		}
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			return fmt.Errorf("line %d: ns/op %q: %w", lineNo, m[3], err)
		}
		res := Result{Package: pkg, Name: m[1], Iterations: iters, NsPerOp: ns, BPerOp: -1, AllocsPerOp: -1, Kernel: kernel}
		rest := m[4]
		if bm := bPerOp.FindStringSubmatch(rest); bm != nil {
			// B/op can legitimately be fractional (amortized bytes);
			// round to the nearest byte rather than truncating.
			b, err := strconv.ParseFloat(bm[1], 64)
			if err != nil {
				return fmt.Errorf("line %d: B/op %q: %w", lineNo, bm[1], err)
			}
			res.BPerOp = int64(math.Round(b))
		}
		if am := allocsOp.FindStringSubmatch(rest); am != nil {
			res.AllocsPerOp, err = strconv.ParseInt(am[1], 10, 64)
			if err != nil {
				return fmt.Errorf("line %d: allocs/op %q: %w", lineNo, am[1], err)
			}
		}
		// Everything else in the tail is a custom b.ReportMetric column.
		for _, mc := range metricCol.FindAllStringSubmatch(rest, -1) {
			unit := mc[2]
			if unit == "B/op" || unit == "allocs/op" {
				continue
			}
			v, err := strconv.ParseFloat(mc[1], 64)
			if err != nil {
				return fmt.Errorf("line %d: metric %s %q: %w", lineNo, unit, mc[1], err)
			}
			if res.Metrics == nil {
				res.Metrics = map[string]float64{}
			}
			res.Metrics[unit] = v
		}
		results = append(results, res)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(results)
}

func main() {
	if err := run(os.Stdin, os.Stdout, hdc.ActiveKernel().String()); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
