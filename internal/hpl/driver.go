package hpl

import (
	"fmt"
	"math"

	"tianhe/internal/blas"
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

// The test matrix is a function of the seed, not a buffer: element (i, j) of
// the order-n matrix is draw j·n+i of the seed's "hpl/matrix" stream,
// centered on zero — column-major order, so one long fill of the stream
// lays out the whole matrix. SplitMix64 computes any draw without the ones
// before it, so a solver fills exactly the blocks it owns and the residual
// check regenerates A a column at a time, as HPL_pdmatgen and HPL_pdtest do;
// nothing keeps a copy of A for the check.

// genSlab is the width of the column slabs the drivers fill A over and of
// the row slabs they verify it over: a multiple of the 8-lane uniform fill.
const genSlab = 128

// Generate builds the benchmark input: an n×n matrix and right-hand side
// with uniform entries in [-0.5, 0.5), the HPL test-matrix distribution,
// from a deterministic seed.
func Generate(n int, seed uint64) (*matrix.Dense, []float64) {
	return generate(n, seed, 1)
}

// generate is Generate with A filled over column slabs on workers
// goroutines; FillMatrix is defined per block, so any split gives the same
// bits.
func generate(n int, seed uint64, workers int) (*matrix.Dense, []float64) {
	a := matrix.NewDense(n, n)
	blas.ForSlabs(n, genSlab, workers, func(j0, j1 int) {
		FillMatrix(a.View(0, j0, n, j1-j0), n, seed, 0, j0)
	})
	return a, RHS(n, seed)
}

// FillMatrix fills dst with the block of the order-n test matrix whose
// top-left element is (i0, j0).
func FillMatrix(dst *matrix.Dense, n int, seed uint64, i0, j0 int) {
	if i0 < 0 || j0 < 0 || i0+dst.Rows > n || j0+dst.Cols > n {
		panic(fmt.Sprintf("hpl: block (%d,%d) %dx%d outside the order-%d matrix", i0, j0, dst.Rows, dst.Cols, n))
	}
	r := sim.NewStream(seed, "hpl/matrix")
	r.Skip(uint64(j0)*uint64(n) + uint64(i0))
	for j := 0; j < dst.Cols; j++ {
		r.FillCentered(dst.Col(j))
		r.Skip(uint64(n - dst.Rows))
	}
}

// RHS returns the right-hand side of the order-n test problem.
func RHS(n int, seed uint64) []float64 {
	b := matrix.NewVector(n)
	matrix.FillRandomVector(b, sim.NewStream(seed, "hpl/rhs"))
	return b
}

// ScaledResidual computes the HPL correctness metric for a claimed solution
// x of A*x = b, using the original (unfactored) matrix.
func ScaledResidual(a *matrix.Dense, x, b []float64) float64 {
	if a.Rows == 0 {
		return 0
	}
	if len(x) != a.Cols {
		panic("hpl: ScaledResidual dimension mismatch")
	}
	r := newResidual(a.Rows, x)
	for j := 0; j < a.Cols; j++ {
		r.add(j, a.Col(j))
	}
	return r.scaled(b)
}

// GeneratedResidual is ScaledResidual against the order-n test matrix of
// seed, regenerated a column at a time instead of read from a copy; it
// returns the same bits.
func GeneratedResidual(n int, seed uint64, x, b []float64) float64 {
	return generatedResidual(n, seed, x, b, 1)
}

// generatedResidual is GeneratedResidual over row slabs on workers
// goroutines. Each slab regenerates its rows of A one column at a time
// through a scratch of its own height, and each row still takes its columns
// in order, so any split gives the same bits.
func generatedResidual(n int, seed uint64, x, b []float64, workers int) float64 {
	if n == 0 {
		return 0
	}
	if len(x) != n {
		panic("hpl: GeneratedResidual dimension mismatch")
	}
	r := newResidual(n, x)
	blas.ForSlabs(n, genSlab, workers, func(i0, i1 int) {
		rows := residual{x: x, ax: r.ax[i0:i1], rowAbs: r.rowAbs[i0:i1]}
		col := matrix.NewDense(i1-i0, 1)
		for j := 0; j < n; j++ {
			FillMatrix(col, n, seed, i0, j)
			rows.add(j, col.Data)
		}
	})
	return r.scaled(b)
}

// residual accumulates what the scaled residual needs from A, one column at
// a time in column order: A·x, where a column whose x_j is zero adds nothing
// (matrix.MulVec's rule), and the row sums of |A| (matrix.Dense.NormInf's).
// Each sum runs in the order those two do, so the result is their bits.
type residual struct {
	x, ax, rowAbs []float64
}

func newResidual(rows int, x []float64) residual {
	return residual{x: x, ax: make([]float64, rows), rowAbs: make([]float64, rows)}
}

func (r residual) add(j int, col []float64) {
	ax, rowAbs := r.ax[:len(col)], r.rowAbs[:len(col)]
	xj := r.x[j]
	for i, v := range col {
		if xj != 0 {
			ax[i] += float64(v * xj)
		}
		rowAbs[i] += math.Abs(v)
	}
}

// scaled returns ||Ax-b||_inf / (eps * (||A||_inf ||x||_inf + ||b||_inf) * n).
func (r residual) scaled(b []float64) float64 {
	var rinf, anorm float64
	for i, v := range r.ax {
		if d := math.Abs(v - b[i]); d > rinf {
			rinf = d
		}
		if s := r.rowAbs[i]; s > anorm {
			anorm = s
		}
	}
	eps := math.Nextafter(1, 2) - 1
	den := eps * (float64(anorm*matrix.VecNormInf(r.x)) + matrix.VecNormInf(b)) * float64(len(r.ax))
	if den == 0 {
		if rinf == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return rinf / den
}

// Run executes the full Linpack benchmark workflow at order n: generate,
// factor, solve, verify, with the generation and the verification on
// opts.Workers goroutines too. It is the correctness backbone for every
// optimized DGEMM path — plugging a broken hybrid executor into opts.Gemm
// fails the residual check here.
func Run(n int, seed uint64, opts Options) (Result, error) {
	opts = opts.withDefaults()
	lu, b := generate(n, seed, opts.Workers)
	ipiv := make([]int, n)
	if err := Dgetrf(lu, ipiv, opts); err != nil {
		return Result{}, err
	}
	return solveAndVerify(lu, ipiv, b, seed, opts.NB, opts.Workers)
}

// solveAndVerify is the tail both drivers share: solve with the factored lu
// and ipiv, check the solution against the regenerated order-n matrix of seed
// on workers goroutines, and report it.
func solveAndVerify(lu *matrix.Dense, ipiv []int, b []float64, seed uint64, nb, workers int) (Result, error) {
	n := lu.Rows
	x := append([]float64(nil), b...)
	SolveFactored(lu, ipiv, x)
	res := generatedResidual(n, seed, x, b, workers)
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
