package blas

import (
	"runtime"
	"runtime/debug"
	"testing"

	"tianhe/internal/matrix"
	"tianhe/internal/sim"
	"tianhe/internal/sim/simtest"
)

// TestDgemmPackedOpAllCombos checks Dgemm and DgemmParallel against the
// naive oracle for all four (tA, tB) pairs. Each shape draws one logical
// op(A), op(B) and C, and the naive product is formed once; every pair
// stores the same operands (transposed where it asks for Trans), so all
// four are checked against that one oracle.
func TestDgemmPackedOpAllCombos(t *testing.T) {
	const alpha, beta = 1.25, 0.5
	combos := []struct{ tA, tB Transpose }{
		{NoTrans, NoTrans}, {Trans, NoTrans}, {NoTrans, Trans}, {Trans, Trans},
	}
	// Shapes straddle every blocking constant: gemmMR/gemmNR fringes,
	// m > gemmABlock/gemmKC, k > gemmKC, and n > gemmNC (several slabs).
	shapes := [][3]int{
		{13, 9, 7}, {1, 1, 1}, {5, 3, 17},
		{gemmABlock/gemmKC + 5, gemmNR + 1, gemmKC + 3},
		{33, gemmNC + 77, 31},
		{150, 600, 300},
	}
	for j, s := range shapes {
		m, n, k := s[0], s[1], s[2]
		r := sim.NewRNG(uint64(500 + j))
		opA, opB, c0 := randDense(r, m, k), randDense(r, k, n), randDense(r, m, n)
		want := c0.Clone()
		DgemmNaive(NoTrans, NoTrans, alpha, opA, opB, beta, want)
		for _, cb := range combos {
			a, b := opA, opB
			if cb.tA == Trans {
				a = opA.Transpose()
			}
			if cb.tB == Trans {
				b = opB.Transpose()
			}
			got := c0.Clone()
			Dgemm(cb.tA, cb.tB, alpha, a, b, beta, got)
			if d := got.MaxDiff(want); d > 1e-11 {
				t.Fatalf("Dgemm(%v,%v,%dx%dx%d) diff=%v", cb.tA, cb.tB, m, n, k, d)
			}
			gotP := c0.Clone()
			DgemmParallel(cb.tA, cb.tB, alpha, a, b, beta, gotP, 4)
			if d := gotP.MaxDiff(want); d > 1e-11 {
				t.Fatalf("DgemmParallel(%v,%v,%dx%dx%d) diff=%v", cb.tA, cb.tB, m, n, k, d)
			}
		}
	}
}

// TestDgemmPackedParallelBitIdentical: the parallel slab sharding must
// produce the exact bytes of the serial path for every worker count — workers
// own disjoint C column slabs and an element's accumulation order never
// depends on the worker count. This is the same determinism contract the
// sweep runner makes one level up.
func TestDgemmPackedParallelBitIdentical(t *testing.T) {
	r := sim.NewRNG(42)
	const m, n, k = 97, 2*gemmNC + 113, 2*gemmKC + 9
	a := randDense(r, k, m) // op(A) = A^T
	b := randDense(r, n, k) // op(B) = B^T
	c0 := randDense(r, m, n)

	want := c0.Clone()
	Dgemm(Trans, Trans, 1.5, a, b, 0.25, want)
	for _, workers := range []int{1, 2, 3, 4, 16} {
		got := c0.Clone()
		DgemmParallel(Trans, Trans, 1.5, a, b, 0.25, got, workers)
		if d := got.MaxDiff(want); d != 0 {
			t.Fatalf("workers=%d: result differs from serial by %v — parallel GEMM must be bit-identical", workers, d)
		}
	}
}

// TestDgemmTransNoPerCallAllocation is the regression test for the
// DgemmParallel transpose-copy bug: the old code materialized a full
// a.Transpose() / b.Transpose() on every call — O(m·k) heap traffic per
// GEMM. The driver linearises op(A) block by block into a pooled fixed-size
// buffer and reads op(B) straight into the multiplier panel, so after warmup
// a transposed Dgemm performs no per-call allocation at all.
func TestDgemmTransNoPerCallAllocation(t *testing.T) {
	if simtest.RaceEnabled {
		t.Skip("race-detector shadow memory skews allocation accounting")
	}
	const m, n, k = 256, 96, 256
	r := sim.NewRNG(7)
	a := randDense(r, k, m)
	b := randDense(r, k, n)
	c := matrix.NewDense(m, n)

	call := func() { Dgemm(Trans, NoTrans, 1, a, b, 0, c) }
	call() // warm the block pool

	// GC off so the pool cannot be emptied mid-measurement.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if avg := testing.AllocsPerRun(20, call); avg >= 1 {
		t.Fatalf("transposed Dgemm allocates %.1f objects per call; the driver must not allocate", avg)
	}

	// Byte-level bound: 20 calls must stay far below one transposed copy
	// (m*k float64s = 512 KiB) — the cost the old path paid every call.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 20; i++ {
		call()
	}
	runtime.ReadMemStats(&after)
	oneCopy := uint64(m * k * 8)
	if delta := after.TotalAlloc - before.TotalAlloc; delta > oneCopy/4 {
		t.Fatalf("20 transposed Dgemms allocated %d bytes (one O(m·k) copy is %d) — per-call copies are back", delta, oneCopy)
	}
}

// TestDgemmFringeNoAlloc: a product with a row fringe and a 3-column group
// runs its padded tiles out of stack scratch, allocating nothing.
func TestDgemmFringeNoAlloc(t *testing.T) {
	if simtest.RaceEnabled {
		t.Skip("race-detector shadow memory skews allocation accounting")
	}
	r := sim.NewRNG(8)
	a, b, c := randDense(r, 13, 9), randDense(r, 9, 7), randDense(r, 13, 7)
	forEachKernel(t, func(t *testing.T) {
		call := func() { Dgemm(NoTrans, NoTrans, -1, a, b, 1, c) }
		if avg := testing.AllocsPerRun(20, call); avg != 0 {
			t.Fatalf("a 13x7x9 Dgemm allocates %v objects per call", avg)
		}
	})
}

// BenchmarkDgemmParallelTrans reports allocs/op for the transposed parallel
// path; the regression this guards showed up as two O(m·k) copies per call.
func BenchmarkDgemmParallelTrans(b *testing.B) {
	const m, n, k = 256, 256, 256
	r := sim.NewRNG(9)
	a := randDense(r, k, m)
	bb := randDense(r, k, n)
	c := matrix.NewDense(m, n)
	DgemmParallel(Trans, NoTrans, 1, a, bb, 0, c, 4) // warm the pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DgemmParallel(Trans, NoTrans, 1, a, bb, 0, c, 4)
	}
}
