//go:build amd64

package hdc

import "strings"

// CPU feature detection via CPUID/XGETBV, dependency-free. The checks
// follow the Intel SDM enabling sequences: a vector extension counts as
// usable only when the CPU reports it AND the OS has enabled saving the
// corresponding register state (OSXSAVE + XCR0 bits), so a kernel that
// dispatches on these flags can never fault on context switch.

// cpuid is implemented in cpuid_amd64.s.
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads XCR0; implemented in cpuid_amd64.s. Only valid when
// CPUID.1:ECX.OSXSAVE is set.
func xgetbv() (eax, edx uint32)

// cpuFeatures holds the one-time detection result.
type cpuFeatureSet struct {
	avx             bool
	avx2            bool
	avx512F         bool
	avx512BW        bool
	avx512DQ        bool
	avx512VL        bool
	avx512VPOPCNTDQ bool
}

var cpuFeatures = detectCPUFeatures()

func detectCPUFeatures() cpuFeatureSet {
	var f cpuFeatureSet
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 1 {
		return f
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const (
		cpuidOSXSAVE = 1 << 27
		cpuidAVX     = 1 << 28
	)
	if ecx1&cpuidOSXSAVE == 0 {
		return f // OS saves no extended state: no AVX of any kind
	}
	xlo, _ := xgetbv()
	const (
		xcr0SSE    = 1 << 1
		xcr0AVX    = 1 << 2
		xcr0OpMask = 1 << 5
		xcr0ZMMHi  = 1 << 6
		xcr0HiZMM  = 1 << 7
	)
	osAVX := xlo&(xcr0SSE|xcr0AVX) == xcr0SSE|xcr0AVX
	osAVX512 := osAVX && xlo&(xcr0OpMask|xcr0ZMMHi|xcr0HiZMM) == xcr0OpMask|xcr0ZMMHi|xcr0HiZMM
	f.avx = osAVX && ecx1&cpuidAVX != 0
	if maxID < 7 || !f.avx {
		return f
	}
	_, ebx7, ecx7, _ := cpuid(7, 0)
	const (
		cpuidAVX2      = 1 << 5
		cpuidAVX512F   = 1 << 16
		cpuidAVX512DQ  = 1 << 17
		cpuidAVX512BW  = 1 << 30
		cpuidAVX512VL  = 1 << 31
		cpuidVPOPCNTDQ = 1 << 14 // CPUID.7.0:ECX
	)
	f.avx2 = ebx7&cpuidAVX2 != 0
	if osAVX512 {
		f.avx512F = ebx7&cpuidAVX512F != 0
		f.avx512DQ = ebx7&cpuidAVX512DQ != 0
		f.avx512BW = ebx7&cpuidAVX512BW != 0
		f.avx512VL = ebx7&cpuidAVX512VL != 0
		f.avx512VPOPCNTDQ = f.avx512F && ecx7&cpuidVPOPCNTDQ != 0
	}
	return f
}

// hasAVX2Kernels reports whether the AVX2 assembly tier can run.
func hasAVX2Kernels() bool { return cpuFeatures.avx && cpuFeatures.avx2 }

// hasAVX512Kernels reports whether the AVX-512 assembly tier can run.
// The tier uses VPTERNLOGQ/VPXORQ/VPERMI2PD (F) on full-width registers,
// VPOPCNTQ (VPOPCNTDQ), KMOVB, VPMOVQ2M and VCVTUQQ2PD (DQ) and VPMAXUQ
// on xmm and ymm registers (VL); BW is required as a conservative
// baseline so the tier only runs on full server-class AVX-512
// implementations. Its scalar code is base x86-64 (BSFQ, not TZCNT).
func hasAVX512Kernels() bool {
	f := cpuFeatures
	return f.avx512F && f.avx512BW && f.avx512DQ && f.avx512VL && f.avx512VPOPCNTDQ
}

// cpuFeatureString renders the detected features for logs, /healthz and
// /metrics.
func cpuFeatureString() string {
	var fs []string
	add := func(ok bool, name string) {
		if ok {
			fs = append(fs, name)
		}
	}
	f := cpuFeatures
	add(f.avx, "avx")
	add(f.avx2, "avx2")
	add(f.avx512F, "avx512f")
	add(f.avx512BW, "avx512bw")
	add(f.avx512DQ, "avx512dq")
	add(f.avx512VL, "avx512vl")
	add(f.avx512VPOPCNTDQ, "avx512vpopcntdq")
	return strings.Join(fs, ",")
}
