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
)

// GemmFunc computes C = alpha*A*B + beta*C (NoTrans/NoTrans). The hybrid
// CPU+GPU executor and the plain BLAS both satisfy it.
type GemmFunc func(alpha float64, a, b *matrix.Dense, beta float64, c *matrix.Dense)

// Options configures a factorization.
type Options struct {
	// NB is the blocking factor; values <= 0 select a default of 64.
	NB int
	// Gemm performs the trailing update; nil selects the built-in BLAS.
	Gemm GemmFunc
	// Workers is how many goroutines Dgetrf's column-slab phases run on (the
	// trailing swaps and U12 solve, the deferred left swaps), and the
	// built-in Gemm's too; Run also fills and verifies the test matrix on
	// them. Values <= 0 select runtime.GOMAXPROCS(0). Every count gives the
	// same bits: workers own disjoint columns (or, in the residual, rows),
	// and no element's arithmetic depends on where a slab boundary falls.
	Workers int
}

func (o Options) withDefaults() Options {
	if o.NB <= 0 {
		o.NB = 64
	}
	o.Workers = sweep.Workers(o.Workers)
	if o.Gemm == nil {
		w := o.Workers
		o.Gemm = func(alpha float64, a, b *matrix.Dense, beta float64, c *matrix.Dense) {
			blas.DgemmParallel(blas.NoTrans, blas.NoTrans, alpha, a, b, beta, c, w)
		}
	}
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
// place and the pivot sequence in ipiv. Each NB-wide panel runs three phases:
//
//   - PanelFactor factors the panel on the caller's goroutine;
//   - the columns right of it take the panel's row swaps and then the U12
//     solve against L11, one NB-multiple column slab at a time on
//     opts.Workers goroutines, so a slab is solved while its swapped rows
//     are still in cache;
//   - opts.Gemm performs the trailing update A22 -= L21·U12, where >90% of
//     the flops go at HPL block sizes, called once per panel from the
//     caller's goroutine, so a hybrid Gemm sees the whole update.
//
// The swaps a panel's pivots owe the finished L columns left of it are
// deferred: nothing reads a finished L block before the end, so after the
// last panel each block column takes every later panel's pivots in one
// pass, in panel order, slab-parallel, and stays in cache for all of them.
// Every split gives the same bits: a row swap and the U12 solve act on each
// column alone, and Gemm obeys the accumulation-order contract, so the
// factors, pivots and any ErrSingular step do not depend on opts.Workers.
func Dgetrf(a *matrix.Dense, ipiv []int, opts Options) error {
	opts = opts.withDefaults()
	m, n, nb, w := a.Rows, a.Cols, opts.NB, opts.Workers
	if m < n {
		panic("hpl: Dgetrf requires m >= n")
	}
	if len(ipiv) < n {
		panic("hpl: ipiv too short")
	}
	var firstErr error
	for j := 0; j < n; j += nb {
		jb := min(nb, n-j)
		if err := PanelFactor(a.View(j, j, m-j, jb), ipiv[j:j+jb]); err != nil && firstErr == nil {
			firstErr = ErrSingular{Step: j + err.(ErrSingular).Step}
		}
		// Rebase panel-relative pivots to absolute row indices.
		for k := j; k < j+jb; k++ {
			ipiv[k] += j
		}
		right := j + jb
		if right == n {
			break
		}
		l11 := a.View(j, j, jb, jb)
		blas.ForSlabs(n-right, nb, w, func(c0, c1 int) {
			c0, cw := right+c0, c1-c0
			blas.Dlaswp(a.View(0, c0, m, cw), ipiv, j, j+jb)
			// U12 = L11^{-1} * A12
			blas.Dtrsm(blas.Left, blas.Lower, blas.NoTrans, blas.Unit, 1, l11, a.View(j, c0, jb, cw))
		})
		// A22 -= L21 * U12: the hot DGEMM.
		if right < m {
			opts.Gemm(-1, a.View(right, j, m-right, jb), a.View(j, right, jb, n-right), 1, a.View(right, right, m-right, n-right))
		}
	}
	// The deferred left swaps: block column [c0, c0+nb) takes the pivots of
	// every panel after its own, ipiv[c0+nb:n]. The last block column has
	// none.
	blas.ForSlabs(max(n-1, 0)/nb*nb, nb, w, func(c0, c1 int) {
		blas.Dlaswp(a.View(0, c0, m, c1-c0), ipiv, c1, n)
	})
	return firstErr
}
