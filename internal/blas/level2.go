package blas

import "tianhe/internal/matrix"

// Transpose selects an operand orientation for Level 2/3 routines.
type Transpose uint8

const (
	// NoTrans uses the operand as stored.
	NoTrans Transpose = iota
	// Trans uses the transpose of the operand.
	Trans
)

func (t Transpose) String() string {
	if t == Trans {
		return "T"
	}
	return "N"
}

// Side selects which side a triangular operand multiplies from.
type Side uint8

const (
	// Left solves op(A)*X = B.
	Left Side = iota
	// Right solves X*op(A) = B.
	Right
)

// Uplo selects the stored triangle of a triangular operand.
type Uplo uint8

const (
	// Upper uses the upper triangle.
	Upper Uplo = iota
	// Lower uses the lower triangle.
	Lower
)

// Diag states whether a triangular operand has an implicit unit diagonal.
type Diag uint8

const (
	// NonUnit reads the diagonal from storage.
	NonUnit Diag = iota
	// Unit assumes a diagonal of ones, ignoring storage.
	Unit
)

// Dger performs the rank-1 update A += alpha * x * y^T.
func Dger(alpha float64, x, y []float64, a *matrix.Dense) {
	if len(x) != a.Rows || len(y) != a.Cols {
		panic("blas: Dger dimension mismatch")
	}
	if alpha == 0 {
		return
	}
	for j := 0; j < a.Cols; j++ {
		if y[j] == 0 {
			continue
		}
		Daxpy(alpha*y[j], x, a.Col(j))
	}
}

// Dgemv computes y = alpha*op(A)*x + beta*y.
func Dgemv(tA Transpose, alpha float64, a *matrix.Dense, x []float64, beta float64, y []float64) {
	rows, cols := a.Rows, a.Cols
	if tA == Trans {
		rows, cols = cols, rows
	}
	if len(x) != cols || len(y) != rows {
		panic("blas: Dgemv dimension mismatch")
	}
	if beta != 1 {
		scaleVector(beta, y)
	}
	if alpha == 0 {
		return
	}
	if tA == NoTrans {
		for j := 0; j < a.Cols; j++ {
			Daxpy(alpha*x[j], a.Col(j), y)
		}
	} else {
		for j := 0; j < a.Cols; j++ {
			y[j] += alpha * Ddot(a.Col(j), x)
		}
	}
}

// Dtrsv solves op(A)*x = b in place (x overwrites b) for a triangular A.
func Dtrsv(uplo Uplo, tA Transpose, diag Diag, a *matrix.Dense, x []float64) {
	n := a.Rows
	if a.Cols != n {
		panic("blas: Dtrsv on non-square matrix")
	}
	if len(x) != n {
		panic("blas: Dtrsv dimension mismatch")
	}
	// Resolve the transposed cases by flipping the triangle and walking the
	// stored columns, which keeps every inner loop unit-stride.
	switch {
	case tA == NoTrans && uplo == Lower:
		for j := 0; j < n; j++ {
			if diag == NonUnit {
				x[j] /= a.At(j, j)
			}
			if x[j] != 0 {
				Daxpy(-x[j], a.Col(j)[j+1:], x[j+1:])
			}
		}
	case tA == NoTrans && uplo == Upper:
		for j := n - 1; j >= 0; j-- {
			if diag == NonUnit {
				x[j] /= a.At(j, j)
			}
			if x[j] != 0 {
				Daxpy(-x[j], a.Col(j)[:j], x[:j])
			}
		}
	case tA == Trans && uplo == Lower:
		for j := n - 1; j >= 0; j-- {
			s := Ddot(a.Col(j)[j+1:], x[j+1:])
			x[j] -= s
			if diag == NonUnit {
				x[j] /= a.At(j, j)
			}
		}
	default: // Trans, Upper
		for j := 0; j < n; j++ {
			s := Ddot(a.Col(j)[:j], x[:j])
			x[j] -= s
			if diag == NonUnit {
				x[j] /= a.At(j, j)
			}
		}
	}
}
