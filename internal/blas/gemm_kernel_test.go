package blas

import (
	"math"
	"testing"

	"tianhe/internal/matrix"
	"tianhe/internal/sim"
)

// contractGemm is the accumulation-order contract of gemm_kernel.go written
// out literally, one element at a time.
func contractGemm(tA, tB Transpose, alpha float64, a, b *matrix.Dense, beta float64, c *matrix.Dense) {
	m, n, k := gemmDims(tA, tB, a, b, c)
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			v := c.At(i, j)
			switch beta {
			case 0:
				v = 0
			case 1:
			default:
				v *= beta
			}
			for l := 0; l < k && alpha != 0; l++ {
				mult := alpha * opAt(tB, b, l, j)
				if mult == 0 {
					continue
				}
				product := float64(mult * opAt(tA, a, i, l))
				v += product
			}
			c.Set(i, j, v)
		}
	}
}

func opAt(t Transpose, x *matrix.Dense, i, j int) float64 {
	if t == Trans {
		return x.At(j, i)
	}
	return x.At(i, j)
}

// randOp returns a random matrix x with op(x) of shape r x c.
func randOp(r *sim.RNG, t Transpose, rows, cols int) *matrix.Dense {
	if t == Trans {
		rows, cols = cols, rows
	}
	return randDense(r, rows, cols)
}

// opView is the r x c window of op(x) at (i, j), as a view of x.
func opView(t Transpose, x *matrix.Dense, i, j, r, c int) *matrix.Dense {
	if t == Trans {
		return x.View(j, i, c, r)
	}
	return x.View(i, j, r, c)
}

// sameBits reports whether x and y hold the same float64s bit for bit. Two
// NaNs count as the same: which payload survives when both operands of an
// instruction are NaN depends on operand order, which the contract leaves
// open.
func sameBits(x, y []float64) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) && !(math.IsNaN(x[i]) && math.IsNaN(y[i])) {
			return false
		}
	}
	return true
}

// kernels lists every kernel, indexed by level. A host runs the prefix
// kernels[:hostKernel()+1].
var kernels = []struct {
	name  string
	level kernelLevel
}{{"portable", kernelPortable}, {"avx2", kernelAVX2}, {"avx512", kernelAVX512}}

// withKernel runs f with kernel k selected.
func withKernel(k kernelLevel, f func()) {
	old := useKernel
	useKernel = k
	defer func() { useKernel = old }()
	f()
}

// forEachKernel runs f as one subtest per kernel, with that kernel selected;
// a kernel the host lacks is skipped with a message.
func forEachKernel(t *testing.T, f func(t *testing.T)) {
	for _, k := range kernels {
		t.Run(k.name, func(t *testing.T) {
			if k.level > hostKernel() {
				t.Skipf("this CPU lacks the %s kernel", k.name)
			}
			withKernel(k.level, func() { f(t) })
		})
	}
}

// plantSpecials overwrites about one element in sixteen of x with a value
// the contract treats specially: the zeros it skips, and the non-finite
// values that must propagate the same way through either kernel.
func plantSpecials(r *sim.RNG, x *matrix.Dense) {
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 0, 0, 0}
	for j := 0; j < x.Cols; j++ {
		col := x.Col(j)
		for i := range col {
			if r.Intn(16) == 0 {
				col[i] = specials[r.Intn(len(specials))]
			}
		}
	}
}

// margins allocates a random matrix with a margin on every side of a
// rows x cols window and returns it with the window's corner.
func margins(r *sim.RNG, rows, cols int) (backing *matrix.Dense, top, left int) {
	top, left = 1+r.Intn(5), 1+r.Intn(3)
	return randDense(r, top+rows+r.Intn(4), left+cols+r.Intn(3)), top, left
}

// offsetView is a rows x cols strided view at a non-zero offset.
func offsetView(r *sim.RNG, rows, cols int) *matrix.Dense {
	backing, top, left := margins(r, rows, cols)
	return backing.View(top, left, rows, cols)
}

// TestKernelOrderContract: every kernel reproduces the literal contract bit
// for bit — hence each other — on shapes that are not multiples of either
// tile or the K block, so padded row and column fringes occur, on strided
// views at non-zero offsets, and with zeros, -0, ±Inf and NaN in all three
// operands. Memory around the C view must come out untouched.
func TestKernelOrderContract(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		r := sim.NewRNG(1509)
		alphas, betas := []float64{-1, 1, 0.37}, []float64{0, 1, 0.5}
		for trial := 0; trial < 400; trial++ {
			m, n := 1+r.Intn(45), 1+r.Intn(14)
			k := 1 + r.Intn(24)
			if trial%8 == 0 {
				k = gemmKC - 3 + r.Intn(40) // straddles the K block
			}
			tA, tB := Transpose(r.Intn(2)), Transpose(r.Intn(2))
			alpha, beta := alphas[r.Intn(3)], betas[r.Intn(3)]
			a, b := offsetView(r, m, k), offsetView(r, k, n)
			if tA == Trans {
				a = offsetView(r, k, m)
			}
			if tB == Trans {
				b = offsetView(r, n, k)
			}
			cBacking, top, left := margins(r, m, n)
			c := cBacking.View(top, left, m, n)
			if trial%2 == 0 {
				plantSpecials(r, a)
				plantSpecials(r, b)
				plantSpecials(r, c)
			}
			wantBacking := cBacking.Clone()
			wantC := wantBacking.View(top, left, m, n)
			contractGemm(tA, tB, alpha, a, b, beta, wantC)
			Dgemm(tA, tB, alpha, a, b, beta, c)
			if !sameBits(cBacking.Data, wantBacking.Data) {
				t.Fatalf("trial %d: Dgemm(%v,%v) %dx%dx%d alpha=%v beta=%v departs from the contract",
					trial, tA, tB, m, n, k, alpha, beta)
			}
		}
	})
}

// TestGemmSplitInvariance: one call equals the same product computed piece
// by piece over arbitrary row and column partitions, and by any number of
// workers, bit for bit — the property Dgetrf ≡ GraphDgetrf and the
// par-1-vs-8 goldens stand on.
func TestGemmSplitInvariance(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		r := sim.NewRNG(2718)
		for trial := 0; trial < 24; trial++ {
			m, n, k := 1+r.Intn(150), 1+r.Intn(300), 1+r.Intn(70)
			tA, tB := Transpose(trial&1), Transpose(trial>>1&1)
			a, b := randOp(r, tA, m, k), randOp(r, tB, k, n)
			c0 := randDense(r, m, n)
			want := c0.Clone()
			Dgemm(tA, tB, -1, a, b, 1, want)

			for _, workers := range []int{1, 2, 3, 7} {
				got := c0.Clone()
				DgemmParallel(tA, tB, -1, a, b, 1, got, workers)
				if !sameBits(got.Data, want.Data) {
					t.Fatalf("trial %d: workers=%d differs from one serial call", trial, workers)
				}
			}

			got := c0.Clone()
			rowCuts, colCuts := randomCuts(r, m), randomCuts(r, n)
			for ri := 0; ri+1 < len(rowCuts); ri++ {
				i0, rows := rowCuts[ri], rowCuts[ri+1]-rowCuts[ri]
				for ci := 0; ci+1 < len(colCuts); ci++ {
					j0, cols := colCuts[ci], colCuts[ci+1]-colCuts[ci]
					Dgemm(tA, tB, -1,
						opView(tA, a, i0, 0, rows, k),
						opView(tB, b, 0, j0, k, cols),
						1, got.View(i0, j0, rows, cols))
				}
			}
			if !sameBits(got.Data, want.Data) {
				t.Fatalf("trial %d: %dx%dx%d (%v,%v) split at rows %v cols %v differs from one call",
					trial, m, n, k, tA, tB, rowCuts, colCuts)
			}
		}
	})
}

// randomCuts returns 0 = c[0] < c[1] < ... = n, up to four pieces.
func randomCuts(r *sim.RNG, n int) []int {
	cuts := []int{0}
	for len(cuts) < 4 && cuts[len(cuts)-1] < n {
		cuts = append(cuts, cuts[len(cuts)-1]+1+r.Intn(n-cuts[len(cuts)-1]))
	}
	if cuts[len(cuts)-1] < n {
		cuts = append(cuts, n)
	}
	return cuts
}
