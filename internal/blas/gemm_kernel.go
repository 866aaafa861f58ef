package blas

import (
	"sync"

	"tianhe/internal/cpufeat"
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
// rows and columns were split over calls or workers, or which kernel ran —
// which is what Dgetrf ≡ GraphDgetrf, the par-1-vs-8 goldens and the elastic
// rebuild rely on.
//
// One driver (gemmCols) walks K blocks, row blocks and groups of four C
// columns; per group it writes the multipliers into a small panel and hands
// the block to gemmTile, which runs it on three kernels with that contract:
// on amd64 a 16x4 AVX-512F and an 8x4 AVX2 assembly kernel for every run of
// K steps without a zero multiplier — a tile with fewer than 8 rows or 4
// columns goes through a padded scratch tile — and gemmPortable for the K
// steps with a zero multiplier and for every tile on other hosts.
const (
	gemmMR = 8   // AVX2 kernel tile rows; the AVX-512 kernel takes 2*gemmMR
	gemmNR = 4   // kernel tile columns
	gemmKC = 256 // K block: the multiplier panel is gemmKC x gemmNR
	gemmNC = 128 // C column slab one parallel worker takes at a time

	// gemmABlock is the float64 count of the A block (mc x kc) every column
	// group re-reads: half a MiB, to stay in L2. A short K block (LU's rank-64
	// update) gets tall row blocks, whose long C columns stream well.
	gemmABlock = 1 << 16
)

// kernelLevel names a kernel; each level's host also runs every lower one.
type kernelLevel uint8

const (
	kernelPortable kernelLevel = iota // gemmPortable alone
	kernelAVX2                        // 8-row strips on gemmKernelAVX2
	kernelAVX512                      // 16-row strips on gemmKernelAVX512, 8-row ones on AVX2
)

// hostKernel is the fastest kernel this host runs.
func hostKernel() kernelLevel {
	switch {
	case cpufeat.Host.AVX512F:
		return kernelAVX512
	case cpufeat.Host.AVX2:
		return kernelAVX2
	}
	return kernelPortable
}

// useKernel is chosen once, from the host's features. Tests lower it to
// compare the kernels; nothing else writes it.
var useKernel = hostKernel()

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
	// op(B)[l, j] is b.Data[j*bj+l*bl].
	bj, bl := b.Stride, 1
	if tB == Trans {
		bj, bl = 1, b.Stride
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
				// A column missing from a short group repeats the last real
				// one, as gemmTile asks.
				col := func(jj int) []float64 { return b.Data[(j+min(jj, nr-1))*bj+l0*bl:] }
				b0, b1, b2, b3 := col(0), col(1), col(2), col(3)
				clean := kc // the first step with a zero multiplier
				for l := 0; l < kc; l++ {
					p := l * bl
					m0, m1, m2, m3 := alpha*b0[p], alpha*b1[p], alpha*b2[p], alpha*b3[p]
					*(*[gemmNR]float64)(mult[l*gemmNR:]) = [gemmNR]float64{m0, m1, m2, m3}
					if m0 == 0 || m1 == 0 || m2 == 0 || m3 == 0 {
						clean = min(clean, l)
					}
				}
				gemmTile(kc, clean, mc, nr, ablk, lda, &mult, c.Data[j*c.Stride+i0:], c.Stride)
			}
		}
	}
}

// gemmTile applies kc K steps to the mc x nr block of C at c, with
// mult[l*gemmNR+jj] the multiplier of step l in column jj; the caller
// vouches that steps [0, clean) have no zero multiplier. When nr < gemmNR
// the missing columns must repeat the last real one: those dummy
// multipliers are zero only where a real one is, so they never cut a kernel
// run, and their products land in scratch columns nobody reads. The rows
// that fill whole 8-row strips of a 4-column group run in place; the rest —
// a row fringe, or every row when nr < gemmNR — go through gemmPadded.
// Every element still sees its K steps in ascending order.
func gemmTile(kc, clean, mc, nr int, a []float64, lda int, mult *[gemmKC * gemmNR]float64, c []float64, ldc int) {
	if useKernel == kernelPortable {
		gemmPortable(kc, mc, nr, a, lda, mult[:], c, ldc)
		return
	}
	full := 0
	if nr == gemmNR {
		full = mc &^ (gemmMR - 1)
	}
	if full > 0 {
		gemmRuns(kc, clean, full, a, lda, mult[:], c, ldc)
	}
	if full < mc {
		gemmPadded(kc, clean, full, mc, nr, a, lda, mult[:], c, ldc)
	}
}

// gemmRuns applies kc K steps to a rows x gemmNR block of C, rows a multiple
// of gemmMR: each run of steps whose four multipliers are all non-zero goes
// to the SIMD kernels — 16-row strips to the AVX-512 one where the host has
// it — and each step with a zero multiplier to gemmPortable. Steps
// [0, clean) are not searched for zeros.
func gemmRuns(kc, clean, rows int, a []float64, lda int, mult []float64, c []float64, ldc int) {
	for l := 0; l < kc; {
		end := min(max(l, clean), kc)
		for end < kc && mult[end*gemmNR] != 0 && mult[end*gemmNR+1] != 0 &&
			mult[end*gemmNR+2] != 0 && mult[end*gemmNR+3] != 0 {
			end++
		}
		if end == l {
			gemmPortable(1, rows, gemmNR, a[l*lda:], lda, mult[l*gemmNR:], c, ldc)
			l++
			continue
		}
		i := 0
		if useKernel == kernelAVX512 {
			for ; i+2*gemmMR <= rows; i += 2 * gemmMR {
				gemmKernelAVX512(end-l, &a[l*lda+i], lda, &mult[l*gemmNR], &c[i], ldc)
			}
		}
		for ; i < rows; i += gemmMR {
			gemmKernelAVX2(end-l, &a[l*lda+i], lda, &mult[l*gemmNR], &c[i], ldc)
		}
		l = end
	}
}

// gemmPadded applies kc K steps to rows [r0, mc) of the mc x nr block of C
// through an 8x4 scratch tile, one window of gemmMR rows at a time: only the
// window's real rows and columns are copied in and out, and the kernels
// compute lane by lane, so what the padding lanes hold cannot reach a real
// element. A window reads gemmMR rows of A in place — the last one is moved
// up to end at row mc, re-reading rows another pass owns — unless the whole
// block is shorter than that (gemmShort).
func gemmPadded(kc, clean, r0, mc, nr int, a []float64, lda int, mult []float64, c []float64, ldc int) {
	var tile [gemmMR * gemmNR]float64
	for w := r0; w < mc; w += gemmMR {
		lo, hi := max(min(w, mc-gemmMR), 0), min(w+gemmMR, mc)
		for jj := 0; jj < nr; jj++ {
			copy(tile[jj*gemmMR+w-lo:], c[jj*ldc+w:jj*ldc+hi])
		}
		if mc < gemmMR {
			gemmShort(kc, clean, mc, a, lda, mult, &tile)
		} else {
			gemmRuns(kc, clean, gemmMR, a[lo:], lda, mult, tile[:], gemmMR)
		}
		for jj := 0; jj < nr; jj++ {
			copy(c[jj*ldc+w:jj*ldc+hi], tile[jj*gemmMR+w-lo:])
		}
	}
}

// shortKC is the K chunk gemmShort pads at a time: LU's rank-64 updates take
// one chunk.
const shortKC = 64

// gemmShort is gemmRuns on an mc-row block of A, mc < gemmMR, into an 8x4
// tile: A is copied shortKC steps at a time into a strip whose rows from mc
// on stay zero.
func gemmShort(kc, clean, mc int, a []float64, lda int, mult []float64, tile *[gemmMR * gemmNR]float64) {
	var pad [shortKC * gemmMR]float64
	for l0 := 0; l0 < kc; l0 += shortKC {
		n := min(shortKC, kc-l0)
		for l := 0; l < n; l++ {
			copy(pad[l*gemmMR:], a[(l0+l)*lda:(l0+l)*lda+mc])
		}
		gemmRuns(n, clean-l0, gemmMR, pad[:], gemmMR, mult[l0*gemmNR:], tile[:], gemmMR)
	}
}

// gemmPortable is the contract in plain Go, for any rows x nr block
// (nr <= gemmNR): per column, one rounded-product axpy per K step with a
// non-zero multiplier. It is the whole arithmetic where there is no SIMD
// kernel, and it takes the K steps with a zero multiplier where there is.
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
