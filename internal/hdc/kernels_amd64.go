//go:build amd64

package hdc

// Assembly kernel entry points (kernels_amd64.s). Each processes words
// [0, args.n) of its streams. The AVX2 kernels take args.n a multiple of
// 4 and leave every remaining word, including the masked tail, to the
// portable loops; the AVX-512 kernels take any args.n and finish the
// final group, masked tail word included, in an opmask iteration. See
// DESIGN.md §2b for the kernel contracts.

//go:noescape
func csaXorBlockAVX2(a *csaArgs)

//go:noescape
func csaXorSmallBlockAVX2(a *csaArgs)

//go:noescape
func signPlanesAVX2(a *csaArgs)

//go:noescape
func hammingAVX2(a, b *uint64, n int64) int64

//go:noescape
func csaXorBlockAVX512(a *csaArgs)

//go:noescape
func csaXorSmallBlockAVX512(a *csaArgs)

//go:noescape
func signPlanesAVX512(a *csaArgs)

//go:noescape
func hammingAVX512(a, b *uint64, n int64) int64

var avx2Kernels = &kernelTable{
	tier:             KernelAVX2,
	lanes:            4,
	csaXorBlock:      csaXorBlockAVX2,
	csaXorSmallBlock: csaXorSmallBlockAVX2,
	signPlanes:       signPlanesAVX2,
	hamming:          hammingAVX2,
}

var avx512Kernels = &kernelTable{
	tier:             KernelAVX512,
	lanes:            8,
	wholeRange:       true,
	csaXorBlock:      csaXorBlockAVX512,
	csaXorSmallBlock: csaXorSmallBlockAVX512,
	signPlanes:       signPlanesAVX512,
	hamming:          hammingAVX512,
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
