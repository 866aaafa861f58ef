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

// daxpyAVX2 is Daxpy's loop for n a positive multiple of 4.
//
//go:noescape
func daxpyAVX2(alpha float64, x, y *float64, n int)

// packMultAVX2 is packMult's loop on unit-stride columns for steps a
// positive multiple of 4; clean is steps when no multiplier is zero.
//
//go:noescape
func packMultAVX2(steps int, alpha float64, b0, b1, b2, b3, mult *float64) (clean int, live bool)

// trsmDiagAVX2 is trsmBlock for a full 8-row, 4-column block.
//
//go:noescape
func trsmDiagAVX2(nonUnit bool, l *float64, ldl int, x0, x1, x2, x3, mult *float64) (zero int, live bool)
