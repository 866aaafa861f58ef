package hpl

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"tianhe/internal/blas"
	"tianhe/internal/matrix"
	"tianhe/internal/sim"
	"tianhe/internal/taskgraph"
)

// reconstructLU multiplies the packed factors back together and applies the
// inverse permutation, recovering the original matrix.
func reconstructLU(lu *matrix.Dense, ipiv []int) *matrix.Dense {
	n := lu.Rows
	l := matrix.NewDense(n, n)
	u := matrix.NewDense(n, n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			switch {
			case i > j:
				l.Set(i, j, lu.At(i, j))
			case i == j:
				l.Set(i, j, 1)
				u.Set(i, j, lu.At(i, j))
			default:
				u.Set(i, j, lu.At(i, j))
			}
		}
	}
	prod := matrix.NewDense(n, n)
	blas.Dgemm(blas.NoTrans, blas.NoTrans, 1, l, u, 0, prod)
	blas.DlaswpInverse(prod, ipiv, 0, n)
	return prod
}

func factorizationCase(t *testing.T, n, nb int, seed uint64) {
	t.Helper()
	a := matrix.NewDense(n, n)
	a.FillRandom(sim.NewRNG(seed))
	orig := a.Clone()
	ipiv := make([]int, n)
	if err := Dgetrf(a, ipiv, Options{NB: nb}); err != nil {
		t.Fatalf("Dgetrf(n=%d nb=%d): %v", n, nb, err)
	}
	re := reconstructLU(a, ipiv)
	if d := re.MaxDiff(orig); d > 1e-10*float64(n) {
		t.Fatalf("n=%d nb=%d: P*L*U differs from A by %v", n, nb, d)
	}
}

func TestDgetrfReconstruction(t *testing.T) {
	for _, c := range []struct {
		n, nb int
	}{
		{1, 1}, {2, 1}, {7, 3}, {16, 4}, {32, 8}, {50, 64}, {64, 16},
		{97, 32}, {128, 64}, {100, 7},
	} {
		factorizationCase(t, c.n, c.nb, uint64(c.n*1000+c.nb))
	}
}

func TestDgetf2SmallKnown(t *testing.T) {
	// A = [[0, 1], [2, 3]] forces a pivot swap.
	a := matrix.NewDense(2, 2)
	a.Set(0, 1, 1)
	a.Set(1, 0, 2)
	a.Set(1, 1, 3)
	ipiv := make([]int, 2)
	if err := Dgetf2(a, ipiv); err != nil {
		t.Fatal(err)
	}
	if ipiv[0] != 1 {
		t.Fatalf("expected pivot swap, ipiv=%v", ipiv)
	}
	// After swap: row0=(2,3), row1=(0,1). L21=0, U=[[2,3],[0,1]].
	if a.At(0, 0) != 2 || a.At(0, 1) != 3 || a.At(1, 0) != 0 || a.At(1, 1) != 1 {
		t.Fatalf("factored panel wrong: %v %v %v %v", a.At(0, 0), a.At(0, 1), a.At(1, 0), a.At(1, 1))
	}
}

func TestDgetf2TallPanel(t *testing.T) {
	r := sim.NewRNG(42)
	a := matrix.NewDense(20, 6)
	a.FillRandom(r)
	orig := a.Clone()
	ipiv := make([]int, 6)
	if err := Dgetf2(a, ipiv); err != nil {
		t.Fatal(err)
	}
	// Verify P*A = L*U on the tall panel: L is 20x6 unit-lower-trapezoidal,
	// U is 6x6 upper.
	l := matrix.NewDense(20, 6)
	u := matrix.NewDense(6, 6)
	for j := 0; j < 6; j++ {
		for i := 0; i < 20; i++ {
			switch {
			case i > j:
				l.Set(i, j, a.At(i, j))
			case i == j:
				l.Set(i, j, 1)
				u.Set(i, j, a.At(i, j))
			default:
				u.Set(i, j, a.At(i, j))
			}
		}
	}
	prod := matrix.NewDense(20, 6)
	blas.Dgemm(blas.NoTrans, blas.NoTrans, 1, l, u, 0, prod)
	pa := orig.Clone()
	blas.Dlaswp(pa, ipiv, 0, 6)
	if d := prod.MaxDiff(pa); d > 1e-12 {
		t.Fatalf("tall panel P*A != L*U, diff %v", d)
	}
}

func TestPanelFactorMatchesDgetf2(t *testing.T) {
	// Recursive and unblocked panel factorization must produce identical
	// factors (same pivot choices, same arithmetic results up to roundoff).
	r := sim.NewRNG(7)
	a := matrix.NewDense(40, 24)
	a.FillRandom(r)
	b := a.Clone()
	ipivA := make([]int, 24)
	ipivB := make([]int, 24)
	if err := Dgetf2(a, ipivA); err != nil {
		t.Fatal(err)
	}
	if err := PanelFactor(b, ipivB); err != nil {
		t.Fatal(err)
	}
	for k := range ipivA {
		if ipivA[k] != ipivB[k] {
			t.Fatalf("pivot %d differs: %d vs %d", k, ipivA[k], ipivB[k])
		}
	}
	if d := a.MaxDiff(b); d > 1e-10 {
		t.Fatalf("factor values differ by %v", d)
	}
}

func TestDgetrfSingular(t *testing.T) {
	a := matrix.NewDense(4, 4) // all zeros
	ipiv := make([]int, 4)
	err := Dgetrf(a, ipiv, Options{NB: 2})
	var sing ErrSingular
	if !errors.As(err, &sing) {
		t.Fatalf("expected ErrSingular, got %v", err)
	}
	if sing.Step != 0 {
		t.Fatalf("singular at step %d, want 0", sing.Step)
	}
}

func TestDgetrfSingularLaterStep(t *testing.T) {
	// Identity with a zeroed trailing 2x2 block goes singular at step 2.
	a := matrix.NewDense(4, 4)
	a.Identity()
	a.Set(2, 2, 0)
	a.Set(3, 3, 0)
	ipiv := make([]int, 4)
	err := Dgetrf(a, ipiv, Options{NB: 4})
	var sing ErrSingular
	if !errors.As(err, &sing) {
		t.Fatalf("expected ErrSingular, got %v", err)
	}
	if sing.Step != 2 {
		t.Fatalf("singular at step %d, want 2", sing.Step)
	}
}

// dgetrfEager is the blocked loop with each panel's pivots applied at once
// to every finished column left of it, where Dgetrf's swap tasks apply them
// whenever the executor gets to them: the reference those are held to.
func dgetrfEager(a *matrix.Dense, ipiv []int, nb int) error {
	m, n := a.Rows, a.Cols
	var firstErr error
	for j := 0; j < n; j += nb {
		jb := min(nb, n-j)
		if err := PanelFactor(a.View(j, j, m-j, jb), ipiv[j:j+jb]); err != nil && firstErr == nil {
			firstErr = ErrSingular{Step: j + err.(ErrSingular).Step}
		}
		for k := j; k < j+jb; k++ {
			ipiv[k] += j
		}
		blas.Dlaswp(a.View(0, 0, m, j), ipiv, j, j+jb)
		if j+jb == n {
			break
		}
		blas.Dlaswp(a.View(0, j+jb, m, n-j-jb), ipiv, j, j+jb)
		u12 := a.View(j, j+jb, jb, n-j-jb)
		blas.Dtrsm(blas.Left, blas.Lower, blas.NoTrans, blas.Unit, 1, a.View(j, j, jb, jb), u12)
		if j+jb < m {
			blas.Dgemm(blas.NoTrans, blas.NoTrans, -1, a.View(j+jb, j, m-j-jb, jb), u12, 1, a.View(j+jb, j+jb, m-j-jb, n-j-jb))
		}
	}
	return firstErr
}

// sameBits reports whether a and b hold the same bits in every element.
func sameBits(a, b *matrix.Dense) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for j := 0; j < a.Cols; j++ {
		bj := b.Col(j)
		for i, v := range a.Col(j) {
			if math.Float64bits(v) != math.Float64bits(bj[i]) {
				return false
			}
		}
	}
	return true
}

// TestDgetrfWorkersIdentical: Dgetrf gives the same factors, pivots and
// ErrSingular step at every worker count, and Workers 1 gives those of the
// loop that swaps finished columns eagerly. The cases cover an uneven last
// tile, a tall matrix, and zero pivots at step 0 and at a later step (a
// zero column stays exactly zero under every update).
func TestDgetrfWorkersIdentical(t *testing.T) {
	const nb = 48
	square, _ := Generate(160, 7) // last tile 16 wide
	tall := matrix.NewDense(200, 160)
	tall.FillRandom(sim.NewRNG(11))
	singular := func(col int) *matrix.Dense {
		a, _ := Generate(160, 9)
		clear(a.Col(col))
		return a
	}
	for _, c := range []struct {
		name     string
		a        *matrix.Dense
		wantStep int // -1: not singular
	}{
		{"square", square, -1},
		{"tall", tall, -1},
		{"singular-0", singular(0), 0},
		{"singular-100", singular(100), 100},
	} {
		want, wantPiv := c.a.Clone(), make([]int, c.a.Cols)
		wantErr := dgetrfEager(want, wantPiv, nb)
		for _, workers := range []int{1, 2, 3, 8} {
			got, gotPiv := c.a.Clone(), make([]int, c.a.Cols)
			err := Dgetrf(got, gotPiv, Options{NB: nb, Workers: workers})
			step := -1
			var sing ErrSingular
			if errors.As(err, &sing) {
				step = sing.Step
			} else if err != nil {
				t.Fatalf("%s, workers %d: %v", c.name, workers, err)
			}
			if step != c.wantStep || err != wantErr {
				t.Errorf("%s, workers %d: error %v (step %d), want step %d and the eager loop's %v", c.name, workers, err, step, c.wantStep, wantErr)
			}
			if !slices.Equal(gotPiv, wantPiv) {
				t.Errorf("%s, workers %d: pivots %v, want %v", c.name, workers, gotPiv, wantPiv)
			}
			if !sameBits(got, want) {
				t.Errorf("%s, workers %d: factors differ from the eager loop's (max diff %g)", c.name, workers, got.MaxDiff(want))
			}
		}
	}
}

// FuzzDgetrfShapes holds Dgetrf to dgetrfEager bit for bit — factors,
// pivots and the ErrSingular step — over fuzzed shapes: n columns and n +
// extra%64 rows, NB = nb%64 (0 is 64) so that last tiles are ragged, n < NB
// and NB = 1 all come up, 1 to 8 workers, and zero, when positive, clearing
// column (zero-1)%n. A square matrix is Generate(n, seed), a tall one filled
// from NewRNG(seed). Square shapes of at most 16 tiles a side also hold
// GraphDgetrf at Par 1 and 3 to the same bits; a larger tile graph costs
// more per input than a fuzz run can spend. The seed corpus is
// TestDgetrfWorkersIdentical's four cases.
func FuzzDgetrfShapes(f *testing.F) {
	f.Add(uint8(160), uint8(0), uint8(48), uint8(1), uint8(0), uint64(7))
	f.Add(uint8(160), uint8(40), uint8(48), uint8(2), uint8(0), uint64(11))
	f.Add(uint8(160), uint8(0), uint8(48), uint8(3), uint8(1), uint64(9))
	f.Add(uint8(160), uint8(0), uint8(48), uint8(7), uint8(101), uint64(9))
	f.Fuzz(func(t *testing.T, n8, extra, nb8, workers8, zero uint8, seed uint64) {
		n, nb, workers := max(int(n8), 1), int(nb8)%64, int(workers8)%8+1
		if nb == 0 {
			nb = 64
		}
		var a *matrix.Dense
		if m := n + int(extra)%64; m == n {
			a, _ = Generate(n, seed)
		} else {
			a = matrix.NewDense(m, n)
			a.FillRandom(sim.NewRNG(seed))
		}
		if zero > 0 {
			clear(a.Col((int(zero) - 1) % n))
		}
		want, wantPiv := a.Clone(), make([]int, n)
		wantErr := dgetrfEager(want, wantPiv, nb)
		check := func(what string, got *matrix.Dense, gotPiv []int, err error) {
			if err != wantErr {
				t.Errorf("%s: error %v, want the eager loop's %v", what, err, wantErr)
			}
			if !slices.Equal(gotPiv, wantPiv) {
				t.Errorf("%s: pivots differ from the eager loop's", what)
			}
			if !sameBits(got, want) {
				t.Errorf("%s: factors differ from the eager loop's (max diff %g)", what, got.MaxDiff(want))
			}
		}
		got, gotPiv := a.Clone(), make([]int, n)
		err := Dgetrf(got, gotPiv, Options{NB: nb, Workers: workers})
		check(fmt.Sprintf("Dgetrf %dx%d NB %d, %d workers", a.Rows, n, nb, workers), got, gotPiv, err)
		if a.Rows != n || (n+nb-1)/nb > 16 {
			return
		}
		for _, par := range []int{1, 3} {
			got, gotPiv := a.Clone(), make([]int, n)
			_, err := GraphDgetrf(got, gotPiv, testElement(), GraphOptions{NB: nb, Lookahead: 1, Sched: taskgraph.Options{Par: par}})
			check(fmt.Sprintf("GraphDgetrf %d NB %d, par %d", n, nb, par), got, gotPiv, err)
		}
	})
}

func TestSolveKnownSystem(t *testing.T) {
	// 2x + y = 5; x + 3y = 10 -> x = 1, y = 3.
	a := matrix.NewDense(2, 2)
	a.Set(0, 0, 2)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 3)
	x, err := Solve(a, []float64{5, 10}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-14 || math.Abs(x[1]-3) > 1e-14 {
		t.Fatalf("solution %v", x)
	}
}

func TestSolveResidualRandom(t *testing.T) {
	for _, n := range []int{5, 33, 100, 257} {
		a, b := Generate(n, uint64(n))
		x, err := Solve(a, b, Options{NB: 32})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if res := ScaledResidual(a, x, b); res >= ResidualThreshold {
			t.Fatalf("n=%d residual %v", n, res)
		}
	}
}

func TestRunPasses(t *testing.T) {
	res, err := Run(150, 9, Options{NB: 48, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed || res.Residual >= ResidualThreshold {
		t.Fatalf("run did not pass: %+v", res)
	}
	if res.N != 150 || res.NB != 48 {
		t.Fatalf("metadata wrong: %+v", res)
	}
}

func TestRunDeterministic(t *testing.T) {
	r1, err1 := Run(64, 3, Options{NB: 16})
	r2, err2 := Run(64, 3, Options{NB: 16})
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if r1.Residual != r2.Residual {
		t.Fatal("same seed must give identical residuals")
	}
	if matrix.VecMaxDiff(r1.X, r2.X) != 0 {
		t.Fatal("same seed must give identical solutions")
	}
}

func TestCustomGemmIsUsed(t *testing.T) {
	calls := 0
	opts := Options{
		NB: 8,
		Gemm: func(alpha float64, a, b *matrix.Dense, beta float64, c *matrix.Dense) {
			calls++
			blas.Dgemm(blas.NoTrans, blas.NoTrans, alpha, a, b, beta, c)
		},
	}
	if _, err := Run(64, 5, opts); err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("custom Gemm was never invoked")
	}
}

func TestBrokenGemmFailsResidual(t *testing.T) {
	// Sanity check that the residual check has teeth: an executor that
	// corrupts the update must be caught.
	opts := Options{
		NB: 16,
		Gemm: func(alpha float64, a, b *matrix.Dense, beta float64, c *matrix.Dense) {
			blas.Dgemm(blas.NoTrans, blas.NoTrans, alpha, a, b, beta, c)
			c.Set(0, 0, c.At(0, 0)+0.5)
		},
	}
	_, err := Run(96, 5, opts)
	if err == nil {
		t.Fatal("corrupted update must fail the residual check")
	}
}

func TestLinpackFlops(t *testing.T) {
	got := LinpackFlops(100)
	want := (2.0/3.0)*1e6 + 1.5*1e4
	if math.Abs(got-want) > 1 {
		t.Fatalf("LinpackFlops(100) = %v, want %v", got, want)
	}
}

func TestScaledResidualExactSolve(t *testing.T) {
	// For an identity system the residual of the exact solution is zero.
	n := 10
	a := matrix.NewDense(n, n)
	a.Identity()
	b := make([]float64, n)
	for i := range b {
		b[i] = float64(i)
	}
	if res := ScaledResidual(a, b, b); res != 0 {
		t.Fatalf("residual %v, want 0", res)
	}
}

func TestSolveFactoredValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("rhs length mismatch should panic")
		}
	}()
	SolveFactored(matrix.NewDense(3, 3), []int{0, 1, 2}, []float64{1})
}

func TestGenerateDeterministic(t *testing.T) {
	a1, b1 := Generate(16, 5)
	a2, b2 := Generate(16, 5)
	if !a1.Equal(a2) || matrix.VecMaxDiff(b1, b2) != 0 {
		t.Fatal("Generate must be deterministic in the seed")
	}
	a3, _ := Generate(16, 6)
	if a1.Equal(a3) {
		t.Fatal("different seeds should give different matrices")
	}
}

func TestFactorizationPropertyNBInvariance(t *testing.T) {
	// The factorization (hence the solution) must not depend on NB.
	f := func(seed uint16) bool {
		n := 48
		a, b := Generate(n, uint64(seed))
		x1, err1 := Solve(a, b, Options{NB: 8})
		x2, err2 := Solve(a, b, Options{NB: 32})
		if err1 != nil || err2 != nil {
			return false
		}
		return matrix.VecMaxDiff(x1, x2) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
