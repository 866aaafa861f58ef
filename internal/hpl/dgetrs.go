package hpl

import (
	"tianhe/internal/blas"
	"tianhe/internal/matrix"
)

// Dgetrs solves op(A) * X = B for multiple right-hand sides given the
// factorization P*A = L*U from Dgetrf, overwriting B with X — the LAPACK
// driver the single-vector SolveFactored specializes.
//
//lint:ignore deadcode reference implementation: the Dtrsm-based driver the tests cross-check the Dtrsv-based SolveFactored against
func Dgetrs(trans blas.Transpose, lu *matrix.Dense, ipiv []int, b *matrix.Dense) {
	n := lu.Cols
	if lu.Rows != n {
		panic("hpl: Dgetrs requires a square factorization")
	}
	if b.Rows != n {
		panic("hpl: Dgetrs rhs row mismatch")
	}
	if trans == blas.NoTrans {
		// X = U^{-1} L^{-1} P B.
		blas.Dlaswp(b, ipiv, 0, n)
		blas.Dtrsm(blas.Left, blas.Lower, blas.NoTrans, blas.Unit, 1, lu, b)
		blas.Dtrsm(blas.Left, blas.Upper, blas.NoTrans, blas.NonUnit, 1, lu, b)
		return
	}
	// A^T = U^T L^T P: X = P^T L^{-T} U^{-T} B.
	blas.Dtrsm(blas.Left, blas.Upper, blas.Trans, blas.NonUnit, 1, lu, b)
	blas.Dtrsm(blas.Left, blas.Lower, blas.Trans, blas.Unit, 1, lu, b)
	blas.DlaswpInverse(b, ipiv, 0, n)
}
