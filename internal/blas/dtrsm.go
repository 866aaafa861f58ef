package blas

import "tianhe/internal/matrix"

// Dtrsm solves a triangular system with multiple right-hand sides in place:
//
//	Left:  op(A) * X = alpha * B
//	Right: X * op(A) = alpha * B
//
// X overwrites B. A must be square with the order matching the chosen side.
// All sixteen (side, uplo, trans, diag) combinations are supported; HPL's
// hot path is (Left, Lower, NoTrans, Unit) for the U12 update and the Right
// cases appear in the row-broadcast variants.
func Dtrsm(side Side, uplo Uplo, tA Transpose, diag Diag, alpha float64, a, b *matrix.Dense) {
	if a.Rows != a.Cols {
		panic("blas: Dtrsm with non-square triangular operand")
	}
	if side == Left && a.Rows != b.Rows {
		panic("blas: Dtrsm Left dimension mismatch")
	}
	if side == Right && a.Rows != b.Cols {
		panic("blas: Dtrsm Right dimension mismatch")
	}
	if alpha != 1 {
		for j := 0; j < b.Cols; j++ {
			scaleVector(alpha, b.Col(j))
		}
	}
	if alpha == 0 {
		return
	}
	switch {
	case side == Right:
		dtrsmRight(uplo, tA, diag, a, b)
	case uplo == Lower && tA == NoTrans:
		dtrsmLeftLower(diag, a, b)
	default:
		// Each column of B is an independent triangular solve.
		for j := 0; j < b.Cols; j++ {
			Dtrsv(uplo, tA, diag, a, b.Col(j))
		}
	}
}

// trsmNB is the diagonal-block order of dtrsmLeftLower: the share of the
// solve left to the scalar Dtrsv is about trsmNB over the order of A.
const trsmNB = 16

// dtrsmLeftLower solves L*X = B (the U12 solve of LU when diag is Unit) by
// diagonal blocks: Dtrsv on a trsmNB-order block of L per column of B, then
// the rows below take B[d1:,:] -= L[d1:,d0:d1]*X[d0:d1,:] through the GEMM
// driver. That is bit-identical to a Dtrsv per column: Dtrsv's multiplier
// -x[l] is exactly (-1)*x[l], it skips the same zeros, and each element
// still receives its l in ascending order.
func dtrsmLeftLower(diag Diag, a, b *matrix.Dense) {
	n := a.Rows
	if b.Cols == 0 {
		return
	}
	for d0 := 0; d0 < n; d0 += trsmNB {
		d1 := min(d0+trsmNB, n)
		l11 := subDense(a, d0, d0, d1-d0, d1-d0)
		for j := 0; j < b.Cols; j++ {
			Dtrsv(Lower, NoTrans, diag, &l11, b.Col(j)[d0:d1])
		}
		if d1 < n {
			l21 := subDense(a, d1, d0, n-d1, d1-d0)
			x, rest := subDense(b, d0, 0, d1-d0, b.Cols), subDense(b, d1, 0, n-d1, b.Cols)
			gemmCols(NoTrans, NoTrans, -1, &l21, &x, 1, &rest, 0, b.Cols)
		}
	}
}

// subDense is m.View(i, j, r, c) for a non-empty in-range window, returned
// by value so the blocked loops above allocate nothing per block.
func subDense(m *matrix.Dense, i, j, r, c int) matrix.Dense {
	return matrix.Dense{Rows: r, Cols: c, Stride: m.Stride, Data: m.Data[j*m.Stride+i:]}
}

// dtrsmRight handles X * op(A) = B column by column of X; every inner
// operation is a unit-stride axpy on a column of B.
func dtrsmRight(uplo Uplo, tA Transpose, diag Diag, a, b *matrix.Dense) {
	n := b.Cols
	// forward reports whether column j of X depends only on columns < j.
	forward := (uplo == Upper && tA == NoTrans) || (uplo == Lower && tA == Trans)
	// coeff returns op(A)[l, j], the multiplier of X[:,l] in column j of the
	// product X*op(A).
	coeff := func(l, j int) float64 {
		if tA == NoTrans {
			return a.At(l, j)
		}
		return a.At(j, l)
	}
	// solveCol eliminates columns [l0, l1) of X from column j.
	solveCol := func(j, l0, l1 int) {
		bj := b.Col(j)
		for l := l0; l < l1; l++ {
			if c := coeff(l, j); c != 0 {
				Daxpy(-c, b.Col(l), bj)
			}
		}
		if diag == NonUnit {
			Dscal(1/coeff(j, j), bj)
		}
	}
	if forward {
		for j := 0; j < n; j++ {
			solveCol(j, 0, j)
		}
		return
	}
	for j := n - 1; j >= 0; j-- {
		solveCol(j, j+1, n)
	}
}
