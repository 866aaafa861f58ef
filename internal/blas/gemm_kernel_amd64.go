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
