package blas

import (
	"sync"
	"sync/atomic"

	"tianhe/internal/matrix"
)

// Packed DGEMM: the GotoBLAS-style algorithm — block C into MC x NC slabs,
// pack the corresponding A (MC x KC) and B (KC x NC) blocks into contiguous
// micro-panels, and drive a 4x4 register-blocked micro-kernel over them.
// Packing turns every inner-loop access into a unit-stride streamed read.
//
// Measured result (BenchmarkDgemm256 vs BenchmarkDgemmPacked256): in pure Go
// the axpy kernel of dgemm.go stays slightly ahead — without SIMD intrinsics
// the 4x4 micro-kernel cannot amortize its packing traffic the way the
// assembly kernels this algorithm was designed for do. The implementation is
// kept as the reference second kernel: it cross-checks the axpy path on
// every shape and documents where a native-code port would start.
const (
	packMR = 4   // micro-kernel rows
	packNR = 4   // micro-kernel columns
	packMC = 128 // A block rows kept hot in L2
	packKC = 256 // shared inner-dimension block
	packNC = 512 // B slab width
)

// packBufs is one worker's pair of fixed-size packing buffers. The buffers
// are pooled: every DgemmPacked* call (and every transposed Dgemm, which
// routes through here) borrows a pair instead of allocating, so repeated
// GEMMs — the HPL trailing updates — run allocation-free.
type packBufs struct {
	a, b []float64
}

var packPool = sync.Pool{New: func() any {
	return &packBufs{
		a: make([]float64, packMC*packKC),
		b: make([]float64, packKC*packNC),
	}
}}

// DgemmPacked computes C = alpha*A*B + beta*C (NoTrans/NoTrans) with the
// packed micro-kernel algorithm. Shapes must agree like in Dgemm.
func DgemmPacked(alpha float64, a, b *matrix.Dense, beta float64, c *matrix.Dense) {
	DgemmPackedOp(NoTrans, NoTrans, alpha, a, b, beta, c)
}

// DgemmPackedOp computes C = alpha*op(A)*op(B) + beta*C with the packed
// micro-kernel algorithm. Transposed operands are linearized by the packing
// step itself — pack reads op(X) element-wise — so no transposed copy of
// the operand is ever materialized.
func DgemmPackedOp(tA, tB Transpose, alpha float64, a, b *matrix.Dense, beta float64, c *matrix.Dense) {
	gemmDims(tA, tB, a, b, c)
	bufs := packPool.Get().(*packBufs)
	packedSlabs(tA, tB, alpha, a, b, beta, c, bufs, 0, c.Cols)
	packPool.Put(bufs)
}

// packedSlabs runs the packed algorithm over the C column slabs
// [jc0, jc1), which must be packNC-aligned at jc0. Each slab is scaled by
// beta and then accumulated tile by tile; slabs touch disjoint columns of
// C, so concurrent calls on disjoint ranges need no synchronization. The
// per-tile accumulation order depends only on the tile, never on which
// worker runs the slab — parallel results are bit-identical to serial.
func packedSlabs(tA, tB Transpose, alpha float64, a, b *matrix.Dense, beta float64, c *matrix.Dense, bufs *packBufs, jc0, jc1 int) {
	m := c.Rows
	k := a.Cols
	if tA == Trans {
		k = a.Rows
	}
	for jc := jc0; jc < jc1; jc += packNC {
		nc := min(packNC, jc1-jc)
		if beta != 1 {
			for j := jc; j < jc+nc; j++ {
				col := c.Col(j)
				if beta == 0 {
					for i := range col {
						col[i] = 0
					}
				} else {
					Dscal(beta, col)
				}
			}
		}
		if alpha == 0 || m == 0 || k == 0 {
			continue
		}
		for pc := 0; pc < k; pc += packKC {
			kc := min(packKC, k-pc)
			if tB == Trans {
				packBT(b, pc, jc, kc, nc, bufs.b)
			} else {
				packB(b, pc, jc, kc, nc, bufs.b)
			}
			for ic := 0; ic < m; ic += packMC {
				mc := min(packMC, m-ic)
				if tA == Trans {
					packAT(a, ic, pc, mc, kc, bufs.a)
				} else {
					packA(a, ic, pc, mc, kc, bufs.a)
				}
				macroKernel(alpha, bufs.a, bufs.b, mc, nc, kc, c, ic, jc)
			}
		}
	}
}

// DgemmPackedParallel is DgemmPackedOp with the outer jc loop — the packNC-
// wide C column slabs — sharded across workers goroutines, each with its
// own pooled pack buffers. Workers own disjoint column slabs of C and the
// per-tile arithmetic order is independent of the worker count, so the
// result is bit-identical to the serial path for any workers value.
func DgemmPackedParallel(tA, tB Transpose, alpha float64, a, b *matrix.Dense, beta float64, c *matrix.Dense, workers int) {
	gemmDims(tA, tB, a, b, c)
	nSlabs := (c.Cols + packNC - 1) / packNC
	if workers > nSlabs {
		workers = nSlabs
	}
	if workers <= 1 {
		DgemmPackedOp(tA, tB, alpha, a, b, beta, c)
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bufs := packPool.Get().(*packBufs)
			defer packPool.Put(bufs)
			for {
				s := int(next.Add(1)) - 1
				if s >= nSlabs {
					return
				}
				jc := s * packNC
				packedSlabs(tA, tB, alpha, a, b, beta, c, bufs, jc, min(jc+packNC, c.Cols))
			}
		}()
	}
	wg.Wait()
}

// packA copies the mc x kc block of A at (i0, p0) into row micro-panels:
// panel p holds rows p*MR..p*MR+MR interleaved by k, zero-padded to MR.
func packA(a *matrix.Dense, i0, p0, mc, kc int, dst []float64) {
	idx := 0
	for ip := 0; ip < mc; ip += packMR {
		rows := min(packMR, mc-ip)
		for kk := 0; kk < kc; kk++ {
			col := a.Col(p0 + kk)
			base := i0 + ip
			for r := 0; r < rows; r++ {
				dst[idx] = col[base+r]
				idx++
			}
			for r := rows; r < packMR; r++ {
				dst[idx] = 0
				idx++
			}
		}
	}
}

// packAT packs the mc x kc block of op(A) = A^T at (i0, p0) into the same
// micro-panel layout as packA. Row i of A^T is column i of A, so each panel
// row streams a unit-stride slice of one A column — the transpose is
// absorbed by the pack, never materialized.
func packAT(a *matrix.Dense, i0, p0, mc, kc int, dst []float64) {
	for ip := 0; ip < mc; ip += packMR {
		rows := min(packMR, mc-ip)
		panel := dst[(ip/packMR)*kc*packMR:]
		for r := 0; r < rows; r++ {
			col := a.Col(i0 + ip + r)[p0 : p0+kc]
			for kk := 0; kk < kc; kk++ {
				panel[kk*packMR+r] = col[kk]
			}
		}
		for r := rows; r < packMR; r++ {
			for kk := 0; kk < kc; kk++ {
				panel[kk*packMR+r] = 0
			}
		}
	}
}

// packBT packs the kc x nc block of op(B) = B^T at (p0, j0) into the same
// micro-panel layout as packB. Row kk of B^T is column kk of B, so the inner
// loop reads B columns at unit stride across the panel width.
func packBT(b *matrix.Dense, p0, j0, kc, nc int, dst []float64) {
	for jp := 0; jp < nc; jp += packNR {
		w := min(packNR, nc-jp)
		panel := dst[(jp/packNR)*kc*packNR:]
		for kk := 0; kk < kc; kk++ {
			bcol := b.Col(p0 + kk)
			for cc := 0; cc < w; cc++ {
				panel[kk*packNR+cc] = bcol[j0+jp+cc]
			}
			for cc := w; cc < packNR; cc++ {
				panel[kk*packNR+cc] = 0
			}
		}
	}
}

// packB copies the kc x nc block of B at (p0, j0) into column micro-panels:
// panel q holds columns q*NR..q*NR+NR interleaved by k, zero-padded to NR.
func packB(b *matrix.Dense, p0, j0, kc, nc int, dst []float64) {
	idx := 0
	var cols [packNR][]float64
	for jp := 0; jp < nc; jp += packNR {
		w := min(packNR, nc-jp)
		for cc := 0; cc < w; cc++ {
			cols[cc] = b.Col(j0 + jp + cc)[p0 : p0+kc]
		}
		for kk := 0; kk < kc; kk++ {
			for cc := 0; cc < w; cc++ {
				dst[idx] = cols[cc][kk]
				idx++
			}
			for cc := w; cc < packNR; cc++ {
				dst[idx] = 0
				idx++
			}
		}
	}
}

// macroKernel sweeps the micro-kernel over the packed panels.
func macroKernel(alpha float64, aPack, bPack []float64, mc, nc, kc int, c *matrix.Dense, i0, j0 int) {
	for jp := 0; jp < nc; jp += packNR {
		bPanel := bPack[(jp/packNR)*kc*packNR:]
		for ip := 0; ip < mc; ip += packMR {
			aPanel := aPack[(ip/packMR)*kc*packMR:]
			microKernel(alpha, aPanel, bPanel, kc, c,
				i0+ip, j0+jp, min(packMR, mc-ip), min(packNR, nc-jp))
		}
	}
}

// microKernel accumulates a 4x4 tile of C from two packed panels. rows/cols
// trim the write-back at the fringes (the panels are zero-padded, so the
// arithmetic itself is always full-width).
func microKernel(alpha float64, aPanel, bPanel []float64, kc int, c *matrix.Dense, i0, j0, rows, cols int) {
	var c00, c01, c02, c03 float64
	var c10, c11, c12, c13 float64
	var c20, c21, c22, c23 float64
	var c30, c31, c32, c33 float64
	for kk := 0; kk < kc; kk++ {
		a0 := aPanel[kk*packMR]
		a1 := aPanel[kk*packMR+1]
		a2 := aPanel[kk*packMR+2]
		a3 := aPanel[kk*packMR+3]
		b0 := bPanel[kk*packNR]
		b1 := bPanel[kk*packNR+1]
		b2 := bPanel[kk*packNR+2]
		b3 := bPanel[kk*packNR+3]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		c20 += a2 * b0
		c21 += a2 * b1
		c22 += a2 * b2
		c23 += a2 * b3
		c30 += a3 * b0
		c31 += a3 * b1
		c32 += a3 * b2
		c33 += a3 * b3
	}
	acc := [packMR][packNR]float64{
		{c00, c01, c02, c03},
		{c10, c11, c12, c13},
		{c20, c21, c22, c23},
		{c30, c31, c32, c33},
	}
	for j := 0; j < cols; j++ {
		col := c.Col(j0 + j)
		for i := 0; i < rows; i++ {
			col[i0+i] += alpha * acc[i][j]
		}
	}
}
