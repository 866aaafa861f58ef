package hpl

import (
	"fmt"
	"math"

	"tianhe/internal/matrix"
	"tianhe/internal/sim"
)

// Result reports one Linpack run: the factorization flop count, the residual
// scaled the way HPL scales it, and whether the run passes the standard
// threshold.
type Result struct {
	N        int
	NB       int
	Flops    float64 // (2/3)N^3 + (3/2)N^2, the official Linpack count
	Residual float64 // ||Ax-b||_inf / (eps * (||A||_inf ||x||_inf + ||b||_inf) * N)
	Passed   bool
	X        []float64
}

// ResidualThreshold is the HPL acceptance bound: scaled residuals below 16
// count as a correct solve.
const ResidualThreshold = 16.0

// LinpackFlops returns the official operation count credited to a Linpack
// run of order n: (2/3)n^3 + (3/2)n^2.
func LinpackFlops(n int) float64 {
	fn := float64(n)
	return float64((2.0/3.0)*fn*fn*fn) + float64(1.5*fn*fn)
}

// Generate builds the benchmark input: an n×n matrix and right-hand side
// with uniform entries in [-0.5, 0.5), the HPL test-matrix distribution,
// from a deterministic seed.
func Generate(n int, seed uint64) (*matrix.Dense, []float64) {
	a := matrix.NewDense(n, n)
	a.FillRandom(sim.NewStream(seed, "hpl/matrix"))
	b := matrix.NewVector(n)
	matrix.FillRandomVector(b, sim.NewStream(seed, "hpl/rhs"))
	return a, b
}

// ScaledResidual computes the HPL correctness metric for a claimed solution
// x of A*x = b, using the original (unfactored) matrix.
func ScaledResidual(a *matrix.Dense, x, b []float64) float64 {
	n := a.Rows
	if n == 0 {
		return 0
	}
	ax := matrix.MulVec(a, x)
	var rinf float64
	for i := range ax {
		if d := math.Abs(ax[i] - b[i]); d > rinf {
			rinf = d
		}
	}
	eps := math.Nextafter(1, 2) - 1
	den := eps * (a.NormInf()*matrix.VecNormInf(x) + matrix.VecNormInf(b)) * float64(n)
	if den == 0 {
		if rinf == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return rinf / den
}

// Run executes the full Linpack benchmark workflow at order n: generate,
// factor, solve, verify. It is the correctness backbone for every optimized
// DGEMM path — plugging a broken hybrid executor into opts.Gemm fails the
// residual check here.
func Run(n int, seed uint64, opts Options) (Result, error) {
	a, b := Generate(n, seed)
	lu := a.Clone()
	ipiv := make([]int, n)
	if err := Dgetrf(lu, ipiv, opts); err != nil {
		return Result{}, err
	}
	x := append([]float64(nil), b...)
	SolveFactored(lu, ipiv, x)
	res := ScaledResidual(a, x, b)
	nb := opts.NB
	if nb <= 0 {
		nb = 64
	}
	r := Result{
		N:        n,
		NB:       nb,
		Flops:    LinpackFlops(n),
		Residual: res,
		Passed:   res < ResidualThreshold,
		X:        x,
	}
	if !r.Passed {
		return r, fmt.Errorf("hpl: residual %g exceeds threshold %g", res, ResidualThreshold)
	}
	return r, nil
}
