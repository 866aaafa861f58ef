// Package blas implements the dense linear-algebra kernels the Linpack
// reproduction needs: the Level 1/2/3 BLAS routines used by HPL (DGEMM,
// DTRSM, DGER, DLASWP, ...) in Go, with one amd64 assembly micro-kernel
// under every Level-3 call and a portable Go kernel with the same contract
// (gemm_kernel.go) everywhere else — no cgo. All matrices are
// column-major matrix.Dense views; vectors are contiguous []float64 slices
// (the unit-stride case is the only one HPL exercises).
package blas

import "math"

// Daxpy computes y += alpha*x over equal-length slices.
func Daxpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("blas: Daxpy length mismatch")
	}
	if alpha == 0 {
		return
	}
	// The float64 conversion rounds the product before the add, so the
	// compiler may not fuse the two into an FMA (it would on arm64 or with
	// GOAMD64=v3) and results do not depend on the build architecture.
	n := len(x)
	i := 0
	for ; i+4 <= n; i += 4 {
		y[i] += float64(alpha * x[i])
		y[i+1] += float64(alpha * x[i+1])
		y[i+2] += float64(alpha * x[i+2])
		y[i+3] += float64(alpha * x[i+3])
	}
	for ; i < n; i++ {
		y[i] += float64(alpha * x[i])
	}
}

// Dscal computes x *= alpha.
func Dscal(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// Ddot returns the dot product of x and y.
func Ddot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("blas: Ddot length mismatch")
	}
	var s float64
	for i := range x {
		s += x[i] * y[i]
	}
	return s
}

// Dasum returns the sum of absolute values of x.
func Dasum(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += math.Abs(v)
	}
	return s
}

// Idamax returns the index of the element of x with the largest absolute
// value, or -1 for an empty slice. Ties resolve to the lowest index, the
// LAPACK convention partial pivoting depends on.
func Idamax(x []float64) int {
	if len(x) == 0 {
		return -1
	}
	best, bi := math.Abs(x[0]), 0
	for i := 1; i < len(x); i++ {
		if a := math.Abs(x[i]); a > best {
			best, bi = a, i
		}
	}
	return bi
}
