package blas

// gemmKernelAVX2 is the 8x4 register-tiled kernel of gemm_kernel_amd64.s.
// It has the contract of gemmPortable for rows = 8 and four non-zero
// multipliers per K step; kc must be at least 1.
//
//go:noescape
func gemmKernelAVX2(kc int, a *float64, lda int, mult *float64, c *float64, ldc int)

// gemmKernelAVX512 is gemmKernelAVX2 for a 16x4 tile, on ZMM registers.
//
//go:noescape
func gemmKernelAVX512(kc int, a *float64, lda int, mult *float64, c *float64, ldc int)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// hostKernel reads the words cpuWords.kernel decides on. Leaf 7 is read
// only where it exists, and XCR0 only under OSXSAVE (XGETBV faults without).
func hostKernel() kernelLevel {
	var w cpuWords
	w.maxLeaf, _, _, _ = cpuid(0, 0)
	_, _, w.ecx1, _ = cpuid(1, 0)
	if w.maxLeaf >= 7 {
		_, w.ebx7, _, _ = cpuid(7, 0)
	}
	if w.ecx1&cpuidOSXSAVE != 0 {
		w.xcr0, _ = xgetbv()
	}
	return w.kernel()
}
