//go:build !amd64

package blas

// Only amd64 has SIMD kernels; everywhere else the portable Go loops are the
// whole of the arithmetic and these stubs are never reached.

func gemmKernelAVX2(kc int, a *float64, lda int, mult *float64, c *float64, ldc int) {
	panic("blas: no assembly kernel on this architecture")
}

func gemmKernelAVX512(kc int, a *float64, lda int, mult *float64, c *float64, ldc int) {
	panic("blas: no assembly kernel on this architecture")
}

func daxpyAVX2(alpha float64, x, y *float64, n int) {
	panic("blas: no assembly kernel on this architecture")
}

func packMultAVX2(steps int, alpha float64, b0, b1, b2, b3, mult *float64) (int, bool) {
	panic("blas: no assembly kernel on this architecture")
}

func trsmDiagAVX2(nonUnit bool, l *float64, ldl int, x0, x1, x2, x3, mult *float64) (int, bool) {
	panic("blas: no assembly kernel on this architecture")
}
