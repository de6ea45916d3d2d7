package main

import (
	"fmt"
	"math"
	"slices"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: fewer, and one stray sample decides the value.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs (0 < q < 1) and the
// number of samples strictly above its rank. ok is false when fewer than
// minBeyond samples lie beyond it, in which case the value is not
// reportable.
func percentile(xs []float64, q float64) (v float64, beyond int, ok bool) {
	if len(xs) == 0 || q <= 0 || q >= 1 {
		return 0, 0, false
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(math.Ceil(q * float64(len(s)))) // 1-based
	beyond = len(s) - rank
	return s[rank-1], beyond, beyond >= minBeyond
}

// median returns the middle value of xs (the mean of the two middle values
// for even lengths), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// perGraph normalises a phase total by the graphs the phase processed.
func perGraph(total float64, graphs int) (float64, error) {
	if graphs <= 0 {
		return 0, fmt.Errorf("no graphs processed")
	}
	return total / float64(graphs), nil
}

// ratio is num/den, or 0 when den is 0 (a counter that never moved).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// span is one timed interval of the trace. Parent indexes the enclosing
// span in the same log, or is -1 for a root. Req joins spans recorded on
// both sides of one HTTP request.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Req    uint64 `json:"req,omitempty"`
}
