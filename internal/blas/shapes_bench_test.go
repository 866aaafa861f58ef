package blas

import (
	"testing"

	"tianhe/internal/matrix"
	"tianhe/internal/sim"
)

// BenchmarkLUShapes times the BLAS calls of a blocked LU at NB = 64 on
// views of an N = 1024 matrix (stride 1024), each reported in GFLOPS: the
// 64x64x64 tile update, the 960x64x64 column update under panel 0, the
// 64x64 unit-lower U12 solve on 64 and on 960 columns (its right-hand sides
// restored, untimed, before each solve so the values stay in range), and
// the 384x63 rank-1 update of a 2-D panel's trailing block.
func BenchmarkLUShapes(b *testing.B) {
	r := sim.NewRNG(1024)
	big := randDense(r, 1024, 1024)
	view := func(i, j, rows, cols int) *matrix.Dense { return big.View(i, j, rows, cols) }
	gflops := func(b *testing.B, flops float64) {
		b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
	}
	gemm := func(m int) func(b *testing.B) {
		return func(b *testing.B) {
			a, bb, c := view(64, 0, m, 64), view(0, 64, 64, 64), view(64, 64, m, 64)
			for i := 0; i < b.N; i++ {
				Dgemm(NoTrans, NoTrans, -1e-6, a, bb, 1, c)
			}
			gflops(b, GemmFlops(m, 64, 64))
		}
	}
	trsm := func(cols int) func(b *testing.B) {
		return func(b *testing.B) {
			l, x := view(0, 0, 64, 64), view(0, 64, 64, cols)
			rhs := x.Clone()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				x.CopyFrom(rhs)
				b.StartTimer()
				Dtrsm(Left, Lower, NoTrans, Unit, 1, l, x)
			}
			gflops(b, float64(64*64*cols))
		}
	}
	b.Run("gemm64x64x64", gemm(64))
	b.Run("gemm960x64x64", gemm(960))
	b.Run("trsm64x64", trsm(64))
	b.Run("trsm64x960", trsm(960))
	b.Run("dger384x63", func(b *testing.B) {
		x, y, a := big.Col(0)[64:448], big.Col(1)[:63], view(64, 65, 384, 63)
		for i := 0; i < b.N; i++ {
			Dger(-1e-6, x, y, a)
		}
		gflops(b, 2*384*63)
	})
}
