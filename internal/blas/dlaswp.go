package blas

import "tianhe/internal/matrix"

// Dlaswp applies a sequence of row interchanges to a: for k = k0..k1-1 the
// row k is swapped with row ipiv[k]. ipiv holds absolute zero-based row
// indices, the convention Dgetf2 produces. Swapping row k with itself is a
// no-op, so identity pivots cost nothing. The whole pivot range is applied
// inside one column before the next is touched: a column stays in cache for
// all its swaps, where a row-outer loop pays one cache line per column per
// pivot.
func Dlaswp(a *matrix.Dense, ipiv []int, k0, k1 int) {
	checkPivots("Dlaswp", a, ipiv, k0, k1)
	for j := 0; j < a.Cols; j++ {
		col := a.Col(j)
		for k := k0; k < k1; k++ {
			if p := ipiv[k]; p != k {
				col[k], col[p] = col[p], col[k]
			}
		}
	}
}

// DlaswpInverse applies the interchanges in reverse order, undoing a prior
// Dlaswp with the same arguments.
func DlaswpInverse(a *matrix.Dense, ipiv []int, k0, k1 int) {
	checkPivots("DlaswpInverse", a, ipiv, k0, k1)
	for j := 0; j < a.Cols; j++ {
		col := a.Col(j)
		for k := k1 - 1; k >= k0; k-- {
			if p := ipiv[k]; p != k {
				col[k], col[p] = col[p], col[k]
			}
		}
	}
}

// checkPivots panics unless ipiv[k0:k1] is a valid range whose every
// non-identity interchange stays inside a.
func checkPivots(name string, a *matrix.Dense, ipiv []int, k0, k1 int) {
	if k0 < 0 || k1 > len(ipiv) || k0 > k1 {
		panic("blas: " + name + " pivot range out of bounds")
	}
	for k := k0; k < k1; k++ {
		if p := ipiv[k]; p != k && (p < 0 || p >= a.Rows || k >= a.Rows) {
			panic("blas: " + name + " pivot index out of matrix")
		}
	}
}

// SwapRows exchanges rows i and p across all columns of a.
func SwapRows(a *matrix.Dense, i, p int) {
	if i == p {
		return
	}
	for j := 0; j < a.Cols; j++ {
		col := a.Col(j)
		col[i], col[p] = col[p], col[i]
	}
}
