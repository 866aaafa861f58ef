package hpl

import (
	"testing"

	"tianhe/internal/blas"
	"tianhe/internal/matrix"
	"tianhe/internal/sim"
)

func TestDgetrsMultipleRHS(t *testing.T) {
	a, lu, ipiv, _ := factored(t, 64, 21)
	// B = A * Xtrue for a random multi-column Xtrue.
	xTrue := matrix.NewDense(64, 5)
	xTrue.FillRandom(sim.NewRNG(3))
	b := matrix.NewDense(64, 5)
	blas.Dgemm(blas.NoTrans, blas.NoTrans, 1, a, xTrue, 0, b)
	Dgetrs(blas.NoTrans, lu, ipiv, b)
	if d := b.MaxDiff(xTrue); d > 1e-9 {
		t.Fatalf("multi-rhs solve off by %v", d)
	}
}

func TestDgetrsTranspose(t *testing.T) {
	a, lu, ipiv, _ := factored(t, 48, 22)
	xTrue := matrix.NewDense(48, 3)
	xTrue.FillRandom(sim.NewRNG(4))
	b := matrix.NewDense(48, 3)
	blas.Dgemm(blas.Trans, blas.NoTrans, 1, a, xTrue, 0, b)
	Dgetrs(blas.Trans, lu, ipiv, b)
	if d := b.MaxDiff(xTrue); d > 1e-9 {
		t.Fatalf("transpose multi-rhs solve off by %v", d)
	}
}

func TestDgetrsAgreesWithSolveFactored(t *testing.T) {
	_, lu, ipiv, rhs := factored(t, 80, 23)
	single := append([]float64(nil), rhs...)
	SolveFactored(lu, ipiv, single)
	multi := matrix.NewDense(80, 1)
	copy(multi.Col(0), rhs)
	Dgetrs(blas.NoTrans, lu, ipiv, multi)
	if d := matrix.VecMaxDiff(single, multi.Col(0)); d != 0 {
		t.Fatalf("vector and matrix drivers differ by %v", d)
	}
}

func TestInvertRoundTrip(t *testing.T) {
	a, lu, ipiv, _ := factored(t, 40, 24)
	// A^{-1} by solving for the identity's columns: Dgetrs with n right-hand sides.
	inv := matrix.NewDense(40, 40)
	inv.Identity()
	Dgetrs(blas.NoTrans, lu, ipiv, inv)
	prod := matrix.NewDense(40, 40)
	blas.Dgemm(blas.NoTrans, blas.NoTrans, 1, a, inv, 0, prod)
	id := matrix.NewDense(40, 40)
	id.Identity()
	if d := prod.MaxDiff(id); d > 1e-8 {
		t.Fatalf("A * A^{-1} differs from identity by %v", d)
	}
}

func TestDgetrsValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("row mismatch should panic")
		}
	}()
	Dgetrs(blas.NoTrans, matrix.NewDense(4, 4), []int{0, 1, 2, 3}, matrix.NewDense(5, 1))
}
