//go:build !amd64

package blas

// Only amd64 has an assembly kernel; everywhere else gemmPortable is the
// whole of the arithmetic and this is never reached.
func hasAVX2() bool { return false }

func gemmKernelAVX2(kc int, a *float64, lda int, mult *float64, c *float64, ldc int) {
	panic("blas: no assembly kernel on this architecture")
}
