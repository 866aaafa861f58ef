package blas

import (
	"fmt"
	"sync"
	"sync/atomic"

	"tianhe/internal/matrix"
)

func gemmDims(tA, tB Transpose, a, b, c *matrix.Dense) (m, n, k int) {
	m, k = a.Rows, a.Cols
	if tA == Trans {
		m, k = k, m
	}
	kb, n := b.Rows, b.Cols
	if tB == Trans {
		kb, n = n, kb
	}
	if kb != k || c.Rows != m || c.Cols != n {
		panic(fmt.Sprintf("blas: Dgemm dimension mismatch: op(A)=%dx%d op(B)=%dx%d C=%dx%d",
			m, k, kb, n, c.Rows, c.Cols))
	}
	return m, n, k
}

// DgemmNaive computes C = alpha*op(A)*op(B) + beta*C with unoptimized triple
// loops. It is the oracle the tests compare every other path against.
func DgemmNaive(tA, tB Transpose, alpha float64, a, b *matrix.Dense, beta float64, c *matrix.Dense) {
	m, n, k := gemmDims(tA, tB, a, b, c)
	at := func(i, l int) float64 {
		if tA == Trans {
			return a.At(l, i)
		}
		return a.At(i, l)
	}
	bt := func(l, j int) float64 {
		if tB == Trans {
			return b.At(j, l)
		}
		return b.At(l, j)
	}
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			var s float64
			for l := 0; l < k; l++ {
				s += at(i, l) * bt(l, j)
			}
			c.Set(i, j, alpha*s+beta*c.At(i, j))
		}
	}
}

// Dgemm computes C = alpha*op(A)*op(B) + beta*C for all four (tA, tB)
// pairs through the one driver and micro-kernel of gemm_kernel.go, in the
// accumulation order written down there.
func Dgemm(tA, tB Transpose, alpha float64, a, b *matrix.Dense, beta float64, c *matrix.Dense) {
	gemmDims(tA, tB, a, b, c)
	gemmCols(tA, tB, alpha, a, b, beta, c, 0, c.Cols)
}

// DgemmParallel is Dgemm with gemmNC-wide slabs of C columns handed out to
// workers goroutines. Workers own disjoint columns of C, and an element's
// accumulation order does not depend on the slab it falls in, so the result
// is bit-identical to Dgemm for every workers value.
func DgemmParallel(tA, tB Transpose, alpha float64, a, b *matrix.Dense, beta float64, c *matrix.Dense, workers int) {
	gemmDims(tA, tB, a, b, c)
	slabs := (c.Cols + gemmNC - 1) / gemmNC
	workers = min(workers, slabs)
	if workers <= 1 {
		gemmCols(tA, tB, alpha, a, b, beta, c, 0, c.Cols)
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := (int(next.Add(1)) - 1) * gemmNC
				if j >= c.Cols {
					return
				}
				gemmCols(tA, tB, alpha, a, b, beta, c, j, min(j+gemmNC, c.Cols))
			}
		}()
	}
	wg.Wait()
}

// GemmFlops returns the floating-point operation count of an m×n×k DGEMM,
// the 2mnk convention the paper's GFLOPS numbers use.
func GemmFlops(m, n, k int) float64 {
	return 2 * float64(m) * float64(n) * float64(k)
}
