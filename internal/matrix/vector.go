package matrix

import (
	"math"

	"tianhe/internal/sim"
)

// Vector helpers used by the right-hand-side handling of the Linpack driver.
// A vector is a plain []float64; these functions keep the driver code
// readable without introducing another type.

// NewVector returns a zeroed length-n vector.
func NewVector(n int) []float64 { return make([]float64, n) }

// FillRandomVector fills v with uniform values in [-0.5, 0.5).
func FillRandomVector(v []float64, r *sim.RNG) {
	r.FillCentered(v)
}

// VecNormInf returns the infinity norm of v.
func VecNormInf(v []float64) float64 {
	var mx float64
	for _, x := range v {
		if a := math.Abs(x); a > mx {
			mx = a
		}
	}
	return mx
}

// VecMaxDiff returns the largest absolute difference between two equal-length
// vectors.
func VecMaxDiff(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("matrix: VecMaxDiff length mismatch")
	}
	var d float64
	for i := range a {
		if v := math.Abs(a[i] - b[i]); v > d {
			d = v
		}
	}
	return d
}

// MulVec computes y = A*x for a dense A, allocating y.
func MulVec(a *Dense, x []float64) []float64 {
	if len(x) != a.Cols {
		panic("matrix: MulVec dimension mismatch")
	}
	y := make([]float64, a.Rows)
	for j := 0; j < a.Cols; j++ {
		col := a.Col(j)
		xj := x[j]
		if xj == 0 {
			continue
		}
		for i, v := range col {
			y[i] += float64(v * xj)
		}
	}
	return y
}
