package hdc

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"sync/atomic"
)

// Kernel dispatch. The straight-line word loops at the heart of the
// packed encoder — the Harley–Seal carry-save accumulation cascade, the
// one-sweep small-sign majority, and the XOR+popcount Hamming query —
// exist in up to three implementations: the portable Go word
// loops (the semantic source of truth), AVX2 assembly, and AVX-512
// assembly (VPTERNLOGQ collapses each 3:2 carry-save step to one
// instruction; VPOPCNTDQ vectorizes the distance loop). CPU features are
// detected once at init and the best supported tier is installed in a
// process-wide function table; the GRAPHHD_KERNEL environment variable
// (portable|avx2|avx512) caps the choice for A/B benchmarking and
// forced-fallback testing.
//
// The AVX2 kernels process a lane-aligned prefix of the word range and
// the caller finishes the remaining words — including the masked tail
// word — with the portable loop; a word column's results never depend on
// any other column, so that split is exact. The AVX-512 kernels cover
// every word themselves: an opmask final iteration takes the last
// n mod 8 words (or the last full group when it holds the masked tail
// word) and folds the tail-word AND into the operand load, so on
// AVX-512 no portable word loop runs. Bit-identity with the portable
// loops is therefore tested rather than structural: the differential
// matrix compares every tier against portable at every remainder from 1
// to 7 words, with and without a masked tail word, and FuzzBitCounter
// runs per tier.

// KernelTier identifies one implementation tier of the hot-loop kernels.
type KernelTier uint8

const (
	// KernelPortable is the pure-Go word-loop implementation — the
	// fallback on every platform and the differential oracle for the
	// vector tiers.
	KernelPortable KernelTier = iota
	// KernelAVX2 is the 256-bit AVX2 assembly tier (4 words per step).
	KernelAVX2
	// KernelAVX512 is the 512-bit AVX-512 assembly tier (8 words per
	// step), using VPTERNLOGQ for the carry-save cascade and VPOPCNTDQ
	// for Hamming distances.
	KernelAVX512
)

// String returns the tier name used by GRAPHHD_KERNEL, /metrics, and
// BENCH artifacts.
func (t KernelTier) String() string {
	switch t {
	case KernelPortable:
		return "portable"
	case KernelAVX2:
		return "avx2"
	case KernelAVX512:
		return "avx512"
	}
	return fmt.Sprintf("kernel(%d)", uint8(t))
}

// ParseKernelTier parses a GRAPHHD_KERNEL value.
func ParseKernelTier(s string) (KernelTier, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "portable":
		return KernelPortable, nil
	case "avx2":
		return KernelAVX2, nil
	case "avx512":
		return KernelAVX512, nil
	}
	return KernelPortable, fmt.Errorf("hdc: unknown kernel tier %q (want portable, avx2 or avx512)", s)
}

// csaArgs is the argument block handed to the csaXorBlock kernels (the
// small sign has its own, smallArgs). The field offsets are part of the
// assembly ABI — kernels_amd64.s addresses them by the byte offsets noted
// below — and are pinned by TestCsaArgsABIOffsets.
//
// One csaArgs lives in each BitCounter with the plane and lane pointers
// and the tail mask pre-resolved (at construction, the tail again by
// SetDim), so filling it per block costs only the per-block stream
// pointers.
type csaArgs struct {
	x   [8]*uint64 // +0   A streams
	y   [8]*uint64 // +64  B streams
	inv [8]uint64  // +128 XNOR masks per stream

	ones, twos, fours, eights *uint64 // +192,200,208,216 carry-save planes
	l0, l1, l2, l3            *uint64 // +224,232,240,248 byteLo lanes
	h0, h1, h2, h3            *uint64 // +256,264,272,280 byteHi lanes

	n    int64  // +288 words to process; a multiple of 4 on AVX2, any count on AVX-512
	tail uint64 // +296 valid bits of the final word (the AVX-512 kernel ANDs word n-1 with it)
}

// kernelTable is the capability-dispatched function table. On the
// portable tier every entry is nil and the callers run their word loops
// over the full range. On a vector tier each entry covers words
// [0, args.n): AVX2 takes the lane-aligned prefix and the caller
// finishes the rest with the portable loop; AVX-512 (wholeRange) takes
// every word, masked tail included, and no portable loop runs.
type kernelTable struct {
	tier  KernelTier
	lanes int // vector width in 64-bit words; 1 on the portable tier
	// wholeRange marks kernels that finish any word count themselves
	// with an opmask final iteration.
	wholeRange bool

	// csaXorBlock accumulates one block of eight XOR/XNOR operand
	// streams, each computed as A^B^inv on the fly, through the
	// carry-save cascade into the four planes, overflowing weight 16 into
	// the byte lanes (AddXorPairs hot loop). The AVX-512 kernel ANDs word
	// n-1 of each stream with args.tail; the AVX2 kernel masks nothing,
	// so its caller keeps the masked tail word on the portable path.
	csaXorBlock func(*csaArgs)
	// signSmall is the one-sweep small sign (SignXorPairsSmallInto): per
	// word group it runs every block of the operand table through the
	// same cascade into six register planes, overflowing weight 16 into
	// the sixteens and thirty-twos, takes the majority by bit-sliced
	// ripple compare and stores dst once. The AVX-512 kernel ANDs word
	// n-1 of dst with args.tail; the AVX2 kernel masks nothing, so its
	// caller keeps the masked tail word on the portable path.
	signSmall func(*smallArgs)
	// hamming returns the XOR+popcount Hamming distance over words
	// [0, n) of two streams (PackedMemory query hot loop).
	hamming func(a, b *uint64, n int64) int64
}

// portableKernels is the universal fallback tier: no vector entry
// points, so every caller runs its portable word loop end to end.
var portableKernels = &kernelTable{tier: KernelPortable, lanes: 1}

// vecLen returns how many leading words of an n-word range the tier's
// vector kernel processes: all of them on a wholeRange tier, else the
// largest lane-aligned prefix.
func (k *kernelTable) vecLen(n int) int {
	if k.wholeRange {
		return n
	}
	return n &^ (k.lanes - 1)
}

// activeKernels is the installed tier. It is written at init (after CPU
// detection and the GRAPHHD_KERNEL override) and by SetKernel, and read
// once per batch-kernel call.
var activeKernels atomic.Pointer[kernelTable]

// kernelEnv records what GRAPHHD_KERNEL asked for, for operator
// diagnostics: a replica silently running a lower tier than requested is
// exactly what /healthz and the startup log exist to surface.
var kernelEnv struct {
	value     string // raw GRAPHHD_KERNEL value ("" if unset)
	requested KernelTier
	valid     bool
}

func init() {
	tables := supportedKernelTables() // ascending; always starts with portable
	chosen := tables[len(tables)-1]
	if s := os.Getenv("GRAPHHD_KERNEL"); s != "" {
		kernelEnv.value = s
		if req, err := ParseKernelTier(s); err == nil {
			kernelEnv.requested = req
			kernelEnv.valid = true
			chosen = clampKernelTier(tables, req)
		}
	}
	activeKernels.Store(chosen)
}

// clampKernelTier returns the best table whose tier does not exceed req.
// Requesting a tier the CPU cannot run therefore degrades to the best
// available one rather than crashing; KernelStatus exposes the gap.
func clampKernelTier(tables []*kernelTable, req KernelTier) *kernelTable {
	chosen := tables[0]
	for _, tb := range tables {
		if tb.tier <= req && tb.tier >= chosen.tier {
			chosen = tb
		}
	}
	return chosen
}

func loadKernels() *kernelTable { return activeKernels.Load() }

// ActiveKernel returns the kernel tier currently serving the hot paths.
func ActiveKernel() KernelTier { return loadKernels().tier }

// SupportedKernels returns every tier this process can run, ascending;
// the first entry is always KernelPortable.
func SupportedKernels() []KernelTier {
	tables := supportedKernelTables()
	out := make([]KernelTier, len(tables))
	for i, tb := range tables {
		out[i] = tb.tier
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SetKernel installs the given tier, failing if the CPU cannot run it.
// It exists for A/B benchmarking and forced-fallback tests; it is not
// meant to be called concurrently with accumulation (a BitCounter batch
// call snapshots the table once, so a mid-stream switch is safe but
// which tier a given block used is then unspecified).
func SetKernel(t KernelTier) error {
	for _, tb := range supportedKernelTables() {
		if tb.tier == t {
			activeKernels.Store(tb)
			return nil
		}
	}
	return fmt.Errorf("hdc: kernel tier %s not supported on this CPU (have %s)", t, strings.Join(kernelNames(SupportedKernels()), ","))
}

func kernelNames(ts []KernelTier) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.String()
	}
	return out
}

// KernelStatus describes the dispatch decision for operators: what the
// CPU offers, what was asked for, and what is actually running.
type KernelStatus struct {
	// Active is the tier currently installed.
	Active KernelTier
	// Supported lists every tier this process can run, ascending.
	Supported []KernelTier
	// CPUFeatures is a comma-separated list of the detected SIMD
	// features relevant to the kernels (e.g. "avx,avx2,avx512f,...").
	CPUFeatures string
	// EnvValue is the raw GRAPHHD_KERNEL value ("" when unset) and
	// EnvValid reports whether it parsed; Requested is the parsed tier.
	// A valid request above the best supported tier is clamped down —
	// Active < Requested is the "replica silently on the fallback"
	// signal fleet dashboards should alert on.
	EnvValue  string
	EnvValid  bool
	Requested KernelTier
}

// Kernels reports the dispatch decision made at init (or the latest
// SetKernel override).
func Kernels() KernelStatus {
	return KernelStatus{
		Active:      ActiveKernel(),
		Supported:   SupportedKernels(),
		CPUFeatures: cpuFeatureString(),
		EnvValue:    kernelEnv.value,
		EnvValid:    kernelEnv.valid,
		Requested:   kernelEnv.requested,
	}
}
