//go:build amd64

package hdc

// Assembly kernel entry points (kernels_amd64.s). Each processes words
// [0, args.n) of its streams. The accumulation kernels take args.n, the
// slab stride, a multiple of 8. The small-sign kernels take args.n a
// multiple of 4 on AVX2, which leaves the remaining words to the
// portable loop, and any count on AVX-512, which stores its final group
// under an opmask. See DESIGN.md §2b for the kernel contracts.

//go:noescape
func csaXorBlockAVX2(a *csaArgs)

//go:noescape
func signSmallAVX2(a *smallArgs)

//go:noescape
func hammingAVX2(a, b *uint64, n int64) int64

//go:noescape
func csaXorBlockAVX512(a *csaArgs)

//go:noescape
func signSmallAVX512(a *smallArgs)

//go:noescape
func hammingAVX512(a, b *uint64, n int64) int64

//go:noescape
func rankCountAVX512(keys *RankKey, n int64, dst *int) bool

//go:noescape
func pageRankAVX512(a pageRankArgs) bool

var avx2Kernels = &kernelTable{
	tier:        KernelAVX2,
	lanes:       4,
	csaXorBlock: csaXorBlockAVX2,
	signSmall:   signSmallAVX2,
	hamming:     hammingAVX2,
}

var avx512Kernels = &kernelTable{
	tier:        KernelAVX512,
	lanes:       8,
	wholeRange:  true,
	csaXorBlock: csaXorBlockAVX512,
	signSmall:   signSmallAVX512,
	hamming:     hammingAVX512,
	rankCount:   rankCountAVX512,
	pageRank:    pageRankAVX512,
}

// supportedKernelTables returns the tiers this process can run,
// ascending. Portable is always present; the vector tiers appear only
// when CPUID (and the OS via XCR0) enables their instruction sets.
func supportedKernelTables() []*kernelTable {
	tables := []*kernelTable{portableKernels}
	if hasAVX2Kernels() {
		tables = append(tables, avx2Kernels)
	}
	if hasAVX512Kernels() {
		tables = append(tables, avx512Kernels)
	}
	return tables
}
