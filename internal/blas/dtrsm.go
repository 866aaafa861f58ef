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

// dtrsmLeftLower solves L*X = B (the U12 solve of LU when diag is Unit)
// left-looking, one group of four columns of B at a time. Each 8-row block
// of X first takes every row already solved as one gemmTile K run, with the
// multipliers -X[l,j] the GEMM driver would form for alpha = -1, then
// trsmDiag solves it against its diagonal block of L. Solved rows are
// consumed in K blocks of gemmKC: once a K block is solved, it is applied to
// every row below it in one call. Element X[i,j] thus receives
// (-X[l,j])*L[i,l] rounded, for l = 0..i-1 in ascending order with zero
// multipliers skipped, and any NonUnit divide last — exactly what Dtrsv does
// to that column, so the two agree bit for bit.
func dtrsmLeftLower(diag Diag, a, b *matrix.Dense) {
	n, lda, ldb := a.Rows, a.Stride, b.Stride
	var mult [gemmKC * gemmNR]float64
	for j := 0; j < b.Cols; j += gemmNR {
		nr := min(gemmNR, b.Cols-j)
		x := b.Data[j*ldb:]
		for k0 := 0; k0 < n; k0 += gemmKC {
			k1 := min(k0+gemmKC, n)
			clean := 0 // steps [k0, k0+clean) hold no zero multiplier
			for i0 := k0; i0 < k1; i0 += gemmMR {
				rows := min(gemmMR, k1-i0)
				if i0 > k0 {
					gemmTile(i0-k0, clean, rows, nr, a.Data[k0*lda+i0:], lda, &mult, x[i0:], ldb)
				}
				trsmDiag(diag, rows, nr, a.Data[i0*lda+i0:], lda, x[i0:], ldb)
				zero := rows // the block's first row with a zero multiplier
				for jj := 0; jj < gemmNR; jj++ {
					src := min(jj, nr-1) * ldb // missing columns repeat the last, as gemmTile asks
					for l, v := range x[src+i0 : src+i0+rows] {
						mult[(i0-k0+l)*gemmNR+jj] = -v
						if v == 0 {
							zero = min(zero, l)
						}
					}
				}
				if clean == i0-k0 {
					clean += zero
				}
			}
			if k1 < n {
				gemmTile(k1-k0, clean, n-k1, nr, a.Data[k0*lda+k1:], lda, &mult, x[k1:], ldb)
			}
		}
	}
}

// trsmDiag finishes the rows x nr block of X at x (rows <= gemmMR) against
// the diagonal block of L at l: per column, Dtrsv's loop on the block, each
// pivot updating only the rows below it.
func trsmDiag(diag Diag, rows, nr int, l []float64, ldl int, x []float64, ldx int) {
	for jj := 0; jj < nr; jj++ {
		xj := x[jj*ldx : jj*ldx+rows]
		if rows == gemmMR {
			trsmDiag8(diag == NonUnit, l, ldl, (*[gemmMR]float64)(xj))
			continue
		}
		for p := range xj {
			if diag == NonUnit {
				xj[p] /= l[p*ldl+p]
			}
			if m := -xj[p]; m != 0 {
				for i, v := range l[p*ldl+p+1 : p*ldl+rows] {
					xj[p+1+i] += float64(m * v)
				}
			}
		}
	}
}

// trsmDiag8 is trsmDiag's loop on one column of a full 8-row block, unrolled
// so the column stays in registers: the same operations in the same order.
func trsmDiag8(nonUnit bool, l []float64, ldl int, x *[gemmMR]float64) {
	col := func(p int) *[gemmMR]float64 { return (*[gemmMR]float64)(l[p*ldl:]) }
	x0, x1, x2, x3, x4, x5, x6, x7 := x[0], x[1], x[2], x[3], x[4], x[5], x[6], x[7]
	c := col(0)
	if nonUnit {
		x0 /= c[0]
	}
	if m := -x0; m != 0 {
		x1 += float64(m * c[1])
		x2 += float64(m * c[2])
		x3 += float64(m * c[3])
		x4 += float64(m * c[4])
		x5 += float64(m * c[5])
		x6 += float64(m * c[6])
		x7 += float64(m * c[7])
	}
	c = col(1)
	if nonUnit {
		x1 /= c[1]
	}
	if m := -x1; m != 0 {
		x2 += float64(m * c[2])
		x3 += float64(m * c[3])
		x4 += float64(m * c[4])
		x5 += float64(m * c[5])
		x6 += float64(m * c[6])
		x7 += float64(m * c[7])
	}
	c = col(2)
	if nonUnit {
		x2 /= c[2]
	}
	if m := -x2; m != 0 {
		x3 += float64(m * c[3])
		x4 += float64(m * c[4])
		x5 += float64(m * c[5])
		x6 += float64(m * c[6])
		x7 += float64(m * c[7])
	}
	c = col(3)
	if nonUnit {
		x3 /= c[3]
	}
	if m := -x3; m != 0 {
		x4 += float64(m * c[4])
		x5 += float64(m * c[5])
		x6 += float64(m * c[6])
		x7 += float64(m * c[7])
	}
	c = col(4)
	if nonUnit {
		x4 /= c[4]
	}
	if m := -x4; m != 0 {
		x5 += float64(m * c[5])
		x6 += float64(m * c[6])
		x7 += float64(m * c[7])
	}
	c = col(5)
	if nonUnit {
		x5 /= c[5]
	}
	if m := -x5; m != 0 {
		x6 += float64(m * c[6])
		x7 += float64(m * c[7])
	}
	c = col(6)
	if nonUnit {
		x6 /= c[6]
	}
	if m := -x6; m != 0 {
		x7 += float64(m * c[7])
	}
	if nonUnit {
		x7 /= col(7)[7]
	}
	*x = [gemmMR]float64{x0, x1, x2, x3, x4, x5, x6, x7}
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
