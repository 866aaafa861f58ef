//go:build !amd64

package blas

// Only amd64 has SIMD kernels; everywhere else gemmPortable is the whole of
// the arithmetic and the two stubs are never reached.
func gemmKernelAVX2(kc int, a *float64, lda int, mult *float64, c *float64, ldc int) {
	panic("blas: no assembly kernel on this architecture")
}

func gemmKernelAVX512(kc int, a *float64, lda int, mult *float64, c *float64, ldc int) {
	panic("blas: no assembly kernel on this architecture")
}
