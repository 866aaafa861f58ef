package hpl

import (
	"math"
	"testing"

	"tianhe/internal/matrix"
	"tianhe/internal/sim"
)

// fillKernels runs a check on the host's uniform-fill kernel and on the
// portable path the kernel is held to.
var fillKernels = []struct {
	name string
	run  func(func())
}{
	{"host", func(f func()) { f() }},
	{"go", sim.WithoutKernel},
}

// checkFillMatrix fills the rows x cols block at (i0, j0) of the order-n
// matrix into a NaN-filled buffer with a padded stride and requires the bits
// of the same view of want.
func checkFillMatrix(t *testing.T, kernel string, want *matrix.Dense, n int, seed uint64, i0, j0, rows, cols int) {
	t.Helper()
	buf := matrix.NewDense(rows+3, cols)
	buf.Fill(math.NaN())
	got := buf.View(0, 0, rows, cols)
	FillMatrix(got, n, seed, i0, j0)
	ref := want.View(i0, j0, rows, cols)
	for j := 0; j < cols; j++ {
		for i := 0; i < rows; i++ {
			if g, w := got.At(i, j), ref.At(i, j); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s: n %d seed %d block (%d,%d) %dx%d: element (%d,%d) = %v, Generate has %v", kernel, n, seed, i0, j0, rows, cols, i, j, g, w)
			}
		}
	}
	for j := 0; j < cols; j++ {
		for _, v := range buf.Col(j)[rows:] {
			if !math.IsNaN(v) {
				t.Fatalf("%s: n %d block (%d,%d) %dx%d: wrote past the view's rows", kernel, n, i0, j0, rows, cols)
			}
		}
	}
}

// TestFillMatrixMatchesGenerate: every block FillMatrix fills equals the
// same view of Generate bit for bit, on the host kernel and the portable
// path, for blocks whose row counts leave ragged tails of an 8-lane fill and
// blocks that start mid-column. Generate is taken on the portable path, so
// the kernel is checked against the scalar loop too.
func TestFillMatrixMatchesGenerate(t *testing.T) {
	const seed = 2009
	for _, n := range []int{1, 7, 9, 100, 1024} {
		var want *matrix.Dense
		sim.WithoutKernel(func() { want, _ = Generate(n, seed) })
		blocks := [][4]int{{0, 0, n, n}, {0, 0, 1, 1}, {n - 1, n - 1, 1, 1}, {0, n - 1, n, 1}}
		if n >= 9 {
			blocks = append(blocks, [4]int{1, 2, n - 1, n - 3}, [4]int{3, 0, 5, n}, [4]int{n - 9, 1, 9, 2}, [4]int{2, 3, 7, 4})
		}
		if n >= 100 {
			blocks = append(blocks, [4]int{n - 67, n - 64, 64, 64}, [4]int{13, 37, n - 13, 11}, [4]int{n - 64, 0, 64, 64})
		}
		for _, k := range fillKernels {
			k.run(func() {
				for _, b := range blocks {
					checkFillMatrix(t, k.name, want, n, seed, b[0], b[1], b[2], b[3])
				}
			})
		}
	}
}

// TestFillMatrixRejectsOutside: a block reaching past the matrix panics.
func TestFillMatrixRejectsOutside(t *testing.T) {
	for _, b := range [][4]int{{-1, 0, 1, 1}, {0, -1, 1, 1}, {1, 0, 8, 1}, {0, 1, 1, 8}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("block %v of an order-8 matrix: no panic", b)
				}
			}()
			FillMatrix(matrix.NewDense(b[2], b[3]), 8, 1, b[0], b[1])
		}()
	}
}

// FuzzFillMatrix holds FillMatrix to the matching view of Generate at
// fuzzed orders, seeds, corners and block shapes, on both fill paths.
func FuzzFillMatrix(f *testing.F) {
	f.Add(uint8(1), uint64(1), uint8(0), uint8(0), uint8(1), uint8(1))
	f.Add(uint8(9), uint64(2009), uint8(1), uint8(0), uint8(8), uint8(9))
	f.Add(uint8(64), uint64(4242), uint8(13), uint8(40), uint8(51), uint8(3))
	f.Add(uint8(100), uint64(1<<63), uint8(99), uint8(0), uint8(1), uint8(100))
	f.Add(uint8(17), uint64(5), uint8(3), uint8(3), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, n8 uint8, seed uint64, i8, j8, r8, c8 uint8) {
		n := 1 + int(n8)%128
		i0, j0 := int(i8)%n, int(j8)%n
		rows, cols := int(r8)%(n-i0+1), int(c8)%(n-j0+1)
		var want *matrix.Dense
		sim.WithoutKernel(func() { want, _ = Generate(n, seed) })
		for _, k := range fillKernels {
			k.run(func() { checkFillMatrix(t, k.name, want, n, seed, i0, j0, rows, cols) })
		}
	})
}

// referenceResidual is the scaled residual spelled out with matrix.MulVec
// and Dense.NormInf, the order both residual feeds must reproduce.
func referenceResidual(a *matrix.Dense, x, b []float64) float64 {
	n := a.Rows
	if n == 0 {
		return 0
	}
	ax := matrix.MulVec(a, x)
	var rinf float64
	for i := range ax {
		if d := math.Abs(ax[i] - b[i]); d > rinf {
			rinf = d
		}
	}
	eps := math.Nextafter(1, 2) - 1
	den := eps * (a.NormInf()*matrix.VecNormInf(x) + matrix.VecNormInf(b)) * float64(n)
	if den == 0 {
		if rinf == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return rinf / den
}

// parityWorkers are the worker counts the drivers' slab-parallel fill and
// residual are held to the serial ones at: one slab per worker and fewer
// slabs than workers included.
var parityWorkers = []int{2, 3, 8}

// TestGeneratedResidualMatchesScaled: the residual against the regenerated
// matrix equals ScaledResidual against Generate's copy, and both equal the
// MulVec + NormInf reference, bit for bit — for the computed solution, a
// perturbed one, one with zero entries (the columns A·x skips) and n = 0,
// serially and over row slabs on several workers.
func TestGeneratedResidualMatchesScaled(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100, 257, 600} {
		const seed = 4242
		a, b := Generate(n, seed)
		x, err := Solve(a, b, Options{NB: 32})
		if err != nil {
			t.Fatal(err)
		}
		perturbed := append([]float64(nil), x...)
		for i := range perturbed {
			perturbed[i] *= 1 + 1e-6*float64(i%5)
		}
		holes := append([]float64(nil), x...)
		for i := 0; i < n; i += 3 {
			holes[i] = 0
		}
		for _, c := range []struct {
			name string
			x    []float64
		}{{"solution", x}, {"perturbed", perturbed}, {"zeros", holes}, {"all-zero", make([]float64, n)}} {
			want := referenceResidual(a, c.x, b)
			scaled := ScaledResidual(a, c.x, b)
			generated := GeneratedResidual(n, seed, c.x, b)
			if math.Float64bits(scaled) != math.Float64bits(want) || math.Float64bits(generated) != math.Float64bits(want) {
				t.Errorf("n %d, %s: ScaledResidual %v, GeneratedResidual %v, MulVec+NormInf %v", n, c.name, scaled, generated, want)
			}
			for _, workers := range parityWorkers {
				if got := generatedResidual(n, seed, c.x, b, workers); math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("n %d, %s, %d workers: generatedResidual %v, MulVec+NormInf %v", n, c.name, workers, got, want)
				}
			}
		}
	}
}
