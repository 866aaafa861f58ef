package blas

import (
	"math"
	"testing"

	"tianhe/internal/sim"
)

// FuzzDGEMMPackedVsNaive cross-checks the DGEMM driver against the reference
// triple loop on arbitrary shapes, scalings, and deterministic random
// contents, for all four (tA, tB) pairs — they share one driver and
// micro-kernel: the results must agree to accumulation-order rounding.
// Entries live in [-0.5, 0.5), so with k inner products the elementwise
// error budget scales with |alpha|*k plus the |beta|-scaled input.
func FuzzDGEMMPackedVsNaive(f *testing.F) {
	f.Add(1, 1, 1, 1.0, 0.0, uint64(1))
	f.Add(4, 4, 4, 1.0, 1.0, uint64(2))
	f.Add(37, 29, 41, 2.0, -0.5, uint64(3))
	f.Add(130, 3, 258, 1.5, 0.5, uint64(4)) // straddles MC/KC/NR fringes
	f.Add(6, 513, 2, -1.0, 0.0, uint64(5))
	f.Fuzz(func(t *testing.T, m, n, k int, alpha, beta float64, seed uint64) {
		// Bound shapes so a fuzz iteration stays fast; fringe coverage
		// only needs dimensions around the 8x4 micro-kernel, the 128-column
		// slab and the 256-deep K block.
		m = 1 + abs(m)%140
		n = 1 + abs(n)%140
		k = 1 + abs(k)%280
		if math.IsNaN(alpha) || math.IsInf(alpha, 0) ||
			math.IsNaN(beta) || math.IsInf(beta, 0) {
			t.Skip("non-finite scalars have no agreement contract")
		}
		// Clamp scalars: huge alpha/beta just test float overflow, not
		// kernel agreement.
		alpha = math.Mod(alpha, 16)
		beta = math.Mod(beta, 16)

		tol := 1e-13 * (math.Abs(alpha)*float64(k) + math.Abs(beta) + 1)
		for pair := 0; pair < 4; pair++ {
			tA, tB := Transpose(pair&1), Transpose(pair>>1)
			r := sim.NewRNG(seed)
			a, b := randOp(r, tA, m, k), randOp(r, tB, k, n)
			c0 := randDense(r, m, n)

			want := c0.Clone()
			DgemmNaive(tA, tB, alpha, a, b, beta, want)
			got := c0.Clone()
			Dgemm(tA, tB, alpha, a, b, beta, got)

			if d := got.MaxDiff(want); d > tol {
				t.Fatalf("driver vs naive DGEMM disagree: (%v,%v) %dx%dx%d alpha=%g beta=%g seed=%d: max diff %g > tol %g",
					tA, tB, m, n, k, alpha, beta, seed, d, tol)
			}
		}
	})
}

func abs(x int) int {
	if x < 0 {
		// Avoid overflow on MinInt: any fixed bucket works for shape
		// derivation.
		if x == math.MinInt {
			return 1
		}
		return -x
	}
	return x
}
