package blas

import "tianhe/internal/matrix"

// Every Level-3 call runs the one driver of gemm_kernel.go; there is no
// separate packed algorithm. This is Dgemm under the name cmd/tianhebench
// and the root benchmarks call.

// DgemmPacked computes C = alpha*A*B + beta*C (NoTrans/NoTrans).
func DgemmPacked(alpha float64, a, b *matrix.Dense, beta float64, c *matrix.Dense) {
	Dgemm(NoTrans, NoTrans, alpha, a, b, beta, c)
}
