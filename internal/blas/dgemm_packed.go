package blas

import "tianhe/internal/matrix"

// Every Level-3 call runs the one driver of gemm_kernel.go; there is no
// separate packed algorithm. These are Dgemm and DgemmParallel under the
// names cmd/tianhebench and the root benchmarks call.

// DgemmPacked computes C = alpha*A*B + beta*C (NoTrans/NoTrans).
func DgemmPacked(alpha float64, a, b *matrix.Dense, beta float64, c *matrix.Dense) {
	Dgemm(NoTrans, NoTrans, alpha, a, b, beta, c)
}

// DgemmPackedOp computes C = alpha*op(A)*op(B) + beta*C.
func DgemmPackedOp(tA, tB Transpose, alpha float64, a, b *matrix.Dense, beta float64, c *matrix.Dense) {
	Dgemm(tA, tB, alpha, a, b, beta, c)
}

// DgemmPackedParallel computes C = alpha*op(A)*op(B) + beta*C on workers
// goroutines.
func DgemmPackedParallel(tA, tB Transpose, alpha float64, a, b *matrix.Dense, beta float64, c *matrix.Dense, workers int) {
	DgemmParallel(tA, tB, alpha, a, b, beta, c, workers)
}
