package blas

// gemmKernelAVX2 is the 8x4 register-tiled kernel of gemm_kernel_amd64.s.
// It has the contract of gemmPortable for rows = 8 and four non-zero
// multipliers per K step; kc must be at least 1.
//
//go:noescape
func gemmKernelAVX2(kc int, a *float64, lda int, mult *float64, c *float64, ldc int)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// hasAVX2 reports whether the CPU executes AVX2 and the OS saves the YMM
// state across context switches.
func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx1, _ := cpuid(1, 0); ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	const xmmYmmState = 0b110
	if xcr0, _ := xgetbv(); xcr0&xmmYmmState != xmmYmmState {
		return false
	}
	const avx2 = 1 << 5
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&avx2 != 0
}
