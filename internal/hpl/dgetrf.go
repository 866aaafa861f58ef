// Package hpl implements the High-Performance-Linpack computation this
// reproduction optimizes: blocked right-looking LU factorization with partial
// pivoting, the triangular solves, and the benchmark driver with the HPL
// residual check. The trailing-submatrix DGEMM — the step the paper's two
// techniques accelerate — is pluggable, so the hybrid compute-element path
// can be swapped in without touching the factorization logic.
package hpl

import (
	"fmt"

	"tianhe/internal/blas"
	"tianhe/internal/matrix"
	"tianhe/internal/sweep"
	"tianhe/internal/taskgraph"
)

// GemmFunc computes C = alpha*A*B + beta*C (NoTrans/NoTrans). The hybrid
// CPU+GPU executor and the plain BLAS both satisfy it.
type GemmFunc func(alpha float64, a, b *matrix.Dense, beta float64, c *matrix.Dense)

// Options configures a factorization.
type Options struct {
	// NB is the blocking factor; values <= 0 select a default of 64.
	NB int
	// Gemm, when set, performs each panel's whole trailing update in one
	// call, from a Dgetrf worker, in panel order and never concurrently with
	// itself; nil runs the update as one built-in BLAS task per block column.
	Gemm GemmFunc
	// Workers is how many goroutines Dgetrf runs its graph's tasks on;
	// Run also fills and verifies the test matrix on them. Values <= 0
	// select runtime.GOMAXPROCS(0). Every count gives the same bits: tasks
	// own disjoint columns (or, in the residual, rows), and no element's
	// arithmetic depends on which worker runs it or when.
	Workers int
}

func (o Options) withDefaults() Options {
	if o.NB <= 0 {
		o.NB = 64
	}
	o.Workers = sweep.Workers(o.Workers)
	return o
}

// ErrSingular reports a zero pivot at the given factorization step. The
// factorization completes (LAPACK semantics) but solving would divide by
// zero.
type ErrSingular struct{ Step int }

func (e ErrSingular) Error() string {
	return fmt.Sprintf("hpl: matrix is singular: zero pivot at step %d", e.Step)
}

// Dgetf2 computes an unblocked LU factorization with partial pivoting of the
// m×n panel a (m >= n), writing pivot rows into ipiv[0:n] as absolute
// zero-based indices within the panel. The returned error, if any, is
// ErrSingular.
func Dgetf2(a *matrix.Dense, ipiv []int) error {
	m, n := a.Rows, a.Cols
	if len(ipiv) < n {
		panic("hpl: ipiv too short")
	}
	var firstSingular error
	row := make([]float64, n) // row j right of the diagonal, gathered for Dger
	for j := 0; j < n && j < m; j++ {
		col := a.Col(j)
		p := j + blas.Idamax(col[j:])
		ipiv[j] = p
		if col[p] == 0 {
			if firstSingular == nil {
				firstSingular = ErrSingular{Step: j}
			}
			continue
		}
		blas.SwapRows(a, j, p)
		if j < m-1 {
			blas.Dscal(1/col[j], col[j+1:])
			if j < n-1 {
				trailing := a.View(j+1, j+1, m-j-1, n-j-1)
				for c := j + 1; c < n; c++ {
					row[c] = a.At(j, c)
				}
				blas.Dger(-1, col[j+1:], row[j+1:], trailing)
			}
		}
	}
	return firstSingular
}

// PanelFactor factors an m×n panel (m >= n) with the recursive algorithm HPL
// uses: split the columns in half, factor the left, update, factor the
// right. Recursion bottoms out in Dgetf2 below 8 columns.
func PanelFactor(a *matrix.Dense, ipiv []int) error {
	m, n := a.Rows, a.Cols
	if n <= 8 || m <= 8 {
		return Dgetf2(a, ipiv)
	}
	nl := n / 2
	left := a.View(0, 0, m, nl)
	err := PanelFactor(left, ipiv[:nl])
	// Apply the left block's pivots to the right block, solve for U12 and
	// update A22 before factoring the right half.
	blas.Dlaswp(a.View(0, nl, m, n-nl), ipiv[:nl], 0, nl)
	l11 := a.View(0, 0, nl, nl)
	u12 := a.View(0, nl, nl, n-nl)
	blas.Dtrsm(blas.Left, blas.Lower, blas.NoTrans, blas.Unit, 1, l11, u12)
	a22 := a.View(nl, nl, m-nl, n-nl)
	l21 := a.View(nl, 0, m-nl, nl)
	blas.Dgemm(blas.NoTrans, blas.NoTrans, -1, l21, u12, 1, a22)
	err2 := PanelFactor(a22, ipiv[nl:n])
	// The right half's pivots are relative to row nl: rebase, and apply them
	// to the left block's rows.
	for k := nl; k < n; k++ {
		ipiv[k] += nl
	}
	blas.Dlaswp(a.View(0, 0, m, nl), ipiv, nl, n)
	if err != nil {
		return err
	}
	return err2
}

// Dgetrf computes the blocked right-looking LU factorization with partial
// pivoting of the square (or tall) matrix a, storing L (unit lower) and U in
// place and the pivot sequence in ipiv. It runs the host form of the LU
// graph (BuildLUGraph with no element) on opts.Workers goroutines through
// taskgraph.Execute: per NB-wide panel, the panel factor, then per block
// column right of it the swaps, the U12 solve and the trailing update below
// (>90% of the flops), and off the critical path the swaps of the finished
// L columns. The update feeding panel k+1 outranks the rest, which panel k+1
// then overlaps: HPL's look-ahead, from the dataflow. Swaps and solves act
// on each column alone and updates obey the accumulation-order contract, so
// the factors, pivots and returned ErrSingular (the lowest panel's) do not
// depend on opts.Workers.
func Dgetrf(a *matrix.Dense, ipiv []int, opts Options) error {
	opts = opts.withDefaults()
	errs := make([]error, (a.Cols+opts.NB-1)/opts.NB)
	g := buildLU(a.Cols, a, ipiv, nil, errs, GraphOptions{NB: opts.NB, Lookahead: -1}, opts.Gemm)
	taskgraph.Execute(g, opts.Workers)
	return firstErr(errs)
}
