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
	// Workers bounds the parallelism of the built-in BLAS path.
	Workers int
}

func (o Options) withDefaults() Options {
	if o.NB <= 0 {
		o.NB = 64
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
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
	right := a.View(0, 0, m, n)
	blas.Dlaswp(right.View(0, nl, m, n-nl), ipiv[:nl], 0, nl)
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
// place and the pivot sequence in ipiv. opts.Gemm performs every trailing
// update, which is where >90% of the flops go at HPL block sizes.
func Dgetrf(a *matrix.Dense, ipiv []int, opts Options) error {
	opts = opts.withDefaults()
	m, n := a.Rows, a.Cols
	if m < n {
		panic("hpl: Dgetrf requires m >= n")
	}
	if len(ipiv) < n {
		panic("hpl: ipiv too short")
	}
	var firstErr error
	for j := 0; j < n; j += opts.NB {
		jb := min(opts.NB, n-j)
		panel := a.View(j, j, m-j, jb)
		if err := PanelFactor(panel, ipiv[j:j+jb]); err != nil && firstErr == nil {
			firstErr = ErrSingular{Step: j + err.(ErrSingular).Step}
		}
		// Rebase panel-relative pivots to absolute row indices.
		for k := j; k < j+jb; k++ {
			ipiv[k] += j
		}
		// Apply the pivots to the columns left and right of the panel.
		if j > 0 {
			blas.Dlaswp(a.View(0, 0, m, j), ipiv, j, j+jb)
		}
		if j+jb < n {
			blas.Dlaswp(a.View(0, j+jb, m, n-j-jb), ipiv, j, j+jb)
			// U12 = L11^{-1} * A12
			l11 := a.View(j, j, jb, jb)
			u12 := a.View(j, j+jb, jb, n-j-jb)
			blas.Dtrsm(blas.Left, blas.Lower, blas.NoTrans, blas.Unit, 1, l11, u12)
			// A22 -= L21 * U12: the hot DGEMM.
			if j+jb < m {
				l21 := a.View(j+jb, j, m-j-jb, jb)
				a22 := a.View(j+jb, j+jb, m-j-jb, n-j-jb)
				opts.Gemm(-1, l21, u12, 1, a22)
			}
		}
	}
	return firstErr
}
