package blas

import (
	"math"
	"testing"

	"tianhe/internal/sim"
)

// FuzzDgemmContract holds Dgemm, for all four (tA, tB) pairs and under every
// kernel the host runs, to the literal accumulation-order contract bit for
// bit, on arbitrary shapes, scalings and deterministic random contents. As a
// second check the result must agree with the reference triple loop to
// rounding: entries live in [-0.5, 0.5), so with k inner products the
// elementwise error budget scales with |alpha|*k plus the |beta|-scaled
// input.
func FuzzDgemmContract(f *testing.F) {
	f.Add(1, 1, 1, 1.0, 0.0, uint64(1))
	f.Add(4, 4, 4, 1.0, 1.0, uint64(2))
	f.Add(37, 29, 41, 2.0, -0.5, uint64(3))
	f.Add(130, 3, 258, 1.5, 0.5, uint64(4)) // straddles MC/KC/NR fringes
	f.Add(6, 513, 2, -1.0, 0.0, uint64(5))
	f.Fuzz(func(t *testing.T, m, n, k int, alpha, beta float64, seed uint64) {
		// Bound shapes so a fuzz iteration stays fast; fringe coverage
		// only needs dimensions around the kernel tiles, the 128-column
		// slab and the 256-deep K block.
		m = 1 + abs(m)%140
		n = 1 + abs(n)%140
		k = 1 + abs(k)%280
		// The contract covers any scalars; the naive oracle's tolerance
		// needs finite, moderate ones (huge alpha/beta just test float
		// overflow, not kernel agreement).
		finite := !math.IsNaN(alpha) && !math.IsInf(alpha, 0) &&
			!math.IsNaN(beta) && !math.IsInf(beta, 0)
		if finite {
			alpha = math.Mod(alpha, 16)
			beta = math.Mod(beta, 16)
		}

		tol := 1e-13 * (math.Abs(alpha)*float64(k) + math.Abs(beta) + 1)
		for pair := 0; pair < 4; pair++ {
			tA, tB := Transpose(pair&1), Transpose(pair>>1)
			r := sim.NewRNG(seed)
			a, b := randOp(r, tA, m, k), randOp(r, tB, k, n)
			c0 := randDense(r, m, n)

			want := c0.Clone()
			contractGemm(tA, tB, alpha, a, b, beta, want)
			for _, kern := range kernels[:hostKernel()+1] {
				got := c0.Clone()
				withKernel(kern.level, func() { Dgemm(tA, tB, alpha, a, b, beta, got) })
				if !sameBits(got.Data, want.Data) {
					t.Fatalf("%s kernel departs from the contract: (%v,%v) %dx%dx%d alpha=%g beta=%g seed=%d",
						kern.name, tA, tB, m, n, k, alpha, beta, seed)
				}
			}
			if !finite {
				continue
			}
			naive := c0.Clone()
			DgemmNaive(tA, tB, alpha, a, b, beta, naive)
			if d := want.MaxDiff(naive); d > tol {
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
