package blas

import (
	"sync"

	"tianhe/internal/matrix"
)

// The accumulation-order contract every Level-3 routine here obeys
// (DESIGN.md "BLAS accumulation-order contract"): after C is scaled by
// beta, element C[i,j] receives
//
//	C[i,j] += (alpha*op(B)[l,j]) * op(A)[i,l]    for l = 0, 1, ..., k-1
//
// in that order, the multiplier alpha*op(B)[l,j] formed first, the product
// rounded to float64 before it is added (never a fused multiply-add), and a
// K step whose multiplier is zero skipped. The order names nothing but
// (i, j, l), so a result cannot depend on tile position, vector width, how
// rows and columns were split over calls or workers, or which of the two
// kernels ran — which is what Dgetrf ≡ GraphDgetrf, the par-1-vs-8 goldens
// and the elastic rebuild rely on.
//
// One driver (gemmCols) walks K blocks, row blocks and groups of four C
// columns; per group it writes the multipliers into a small panel and hands
// row tiles to one of two kernels with that contract: the amd64 AVX2
// assembly kernel for full 8x4 tiles over K runs without a zero multiplier,
// and gemmPortable for everything else — row and column fringes, K steps
// with a zero multiplier, and every tile on other architectures.
const (
	gemmMR = 8   // kernel tile rows
	gemmNR = 4   // kernel tile columns
	gemmKC = 256 // K block: the multiplier panel is gemmKC x gemmNR
	gemmNC = 128 // C column slab one parallel worker takes at a time

	// gemmABlock is the float64 count of the A block (mc x kc) every column
	// group re-reads: half a MiB, to stay in L2. A short K block (LU's rank-64
	// update) gets tall row blocks, whose long C columns stream well.
	gemmABlock = 1 << 16
)

// useAVX2 selects the assembly kernel, once, from CPUID. Tests flip it to
// compare the two kernels; nothing else writes it.
var useAVX2 = hasAVX2()

// transPool holds the A blocks into which a transposed A is
// linearised, so a transposed GEMM allocates nothing per call.
var transPool = sync.Pool{New: func() any { return new([gemmABlock]float64) }}

// gemmCols computes columns [j0, j1) of C = alpha*op(A)*op(B) + beta*C.
// Calls on disjoint column ranges touch disjoint memory.
func gemmCols(tA, tB Transpose, alpha float64, a, b *matrix.Dense, beta float64, c *matrix.Dense, j0, j1 int) {
	m, k := a.Rows, a.Cols
	if tA == Trans {
		m, k = k, m
	}
	if beta != 1 {
		for j := j0; j < j1; j++ {
			scaleVector(beta, c.Col(j))
		}
	}
	if alpha == 0 || m == 0 || k == 0 || j0 >= j1 {
		return
	}
	var abuf *[gemmABlock]float64
	if tA == Trans {
		abuf = transPool.Get().(*[gemmABlock]float64)
		defer transPool.Put(abuf)
	}
	var mult [gemmKC * gemmNR]float64
	for l0 := 0; l0 < k; l0 += gemmKC {
		kc := min(gemmKC, k-l0)
		mcMax := (gemmABlock / kc) &^ (gemmMR - 1)
		for i0 := 0; i0 < m; i0 += mcMax {
			mc := min(mcMax, m-i0)
			// ablk[l*lda+i] is op(A)[i0+i, l0+l].
			var ablk []float64
			var lda int
			if tA == Trans {
				for i := 0; i < mc; i++ {
					for l, v := range a.Col(i0 + i)[l0 : l0+kc] {
						abuf[l*mc+i] = v
					}
				}
				ablk, lda = abuf[:], mc
			} else {
				ablk, lda = a.Data[l0*a.Stride+i0:], a.Stride
			}
			for j := j0; j < j1; j += gemmNR {
				nr := min(gemmNR, j1-j)
				for jj := 0; jj < nr; jj++ {
					if tB == Trans {
						for l := 0; l < kc; l++ {
							mult[l*gemmNR+jj] = alpha * b.Data[(l0+l)*b.Stride+j+jj]
						}
					} else {
						for l, v := range b.Col(j + jj)[l0 : l0+kc] {
							mult[l*gemmNR+jj] = alpha * v
						}
					}
				}
				gemmTile(kc, mc, nr, ablk, lda, &mult, c.Data[j*c.Stride+i0:], c.Stride)
			}
		}
	}
}

// gemmTile applies kc K steps to the mc x nr block of C at c: the rows that
// fill 8x4 tiles go to the assembly kernel in runs of K steps free of zero
// multipliers, each step that has one and the fringe rows to gemmPortable.
// Every element still sees its K steps in ascending order.
func gemmTile(kc, mc, nr int, a []float64, lda int, mult *[gemmKC * gemmNR]float64, c []float64, ldc int) {
	full := 0
	if useAVX2 && nr == gemmNR {
		full = mc &^ (gemmMR - 1)
	}
	if full < mc {
		gemmPortable(kc, mc-full, nr, a[full:], lda, mult[:], c[full:], ldc)
	}
	if full == 0 {
		return
	}
	for l := 0; l < kc; {
		end := l
		for end < kc && mult[end*gemmNR] != 0 && mult[end*gemmNR+1] != 0 &&
			mult[end*gemmNR+2] != 0 && mult[end*gemmNR+3] != 0 {
			end++
		}
		if end == l {
			gemmPortable(1, full, nr, a[l*lda:], lda, mult[l*gemmNR:], c, ldc)
			l++
			continue
		}
		for i := 0; i < full; i += gemmMR {
			gemmKernelAVX2(end-l, &a[l*lda+i], lda, &mult[l*gemmNR], &c[i], ldc)
		}
		l = end
	}
}

// gemmPortable is the contract in plain Go, for any rows x nr block
// (nr <= gemmNR): per column, one rounded-product axpy per K step with a
// non-zero multiplier. It is the whole arithmetic where there is no assembly
// kernel and the reference the kernel tests compare against.
func gemmPortable(kc, rows, nr int, a []float64, lda int, mult []float64, c []float64, ldc int) {
	for jj := 0; jj < nr; jj++ {
		cj := c[jj*ldc : jj*ldc+rows]
		for l := 0; l < kc; l++ {
			Daxpy(mult[l*gemmNR+jj], a[l*lda:l*lda+rows], cj)
		}
	}
}

// scaleVector computes x *= beta, storing exact zeros for beta == 0 so NaN
// and Inf in x do not survive.
func scaleVector(beta float64, x []float64) {
	if beta == 0 {
		clear(x)
		return
	}
	Dscal(beta, x)
}
