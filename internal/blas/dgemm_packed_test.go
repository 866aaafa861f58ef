package blas

import (
	"testing"

	"tianhe/internal/matrix"
	"tianhe/internal/sim"
)

func packedCase(t *testing.T, m, n, k int, alpha, beta float64, seed uint64) {
	t.Helper()
	r := sim.NewRNG(seed)
	a := randDense(r, m, k)
	b := randDense(r, k, n)
	c0 := randDense(r, m, n)
	want := c0.Clone()
	DgemmNaive(NoTrans, NoTrans, alpha, a, b, beta, want)
	got := c0.Clone()
	DgemmPacked(alpha, a, b, beta, got)
	if d := got.MaxDiff(want); d > 1e-11 {
		t.Fatalf("DgemmPacked(%dx%dx%d, alpha=%v, beta=%v) diff %v", m, n, k, alpha, beta, d)
	}
}

func TestDgemmPackedShapes(t *testing.T) {
	shapes := [][3]int{
		{1, 1, 1}, {3, 5, 7}, {4, 4, 4}, {5, 5, 5},
		{16, 16, 16}, {64, 64, 64}, {100, 90, 80},
		{129, 131, 257}, // straddles the tile, slab and K-block boundaries
		{gemmABlock/gemmKC + 1, gemmNC + 1, gemmKC + 1},
	}
	for i, s := range shapes {
		packedCase(t, s[0], s[1], s[2], 1, 0, uint64(600+i))
	}
}

func TestDgemmPackedAlphaBeta(t *testing.T) {
	for i, ab := range [][2]float64{{1, 1}, {2, -0.5}, {0, 1}, {-1, 0}} {
		packedCase(t, 37, 29, 41, ab[0], ab[1], uint64(700+i))
	}
}

func TestDgemmPackedFringes(t *testing.T) {
	// Dimensions deliberately not multiples of the 8x4 micro-kernel.
	for i, s := range [][3]int{{6, 7, 9}, {130, 3, 258}, {5, 513, 2}} {
		packedCase(t, s[0], s[1], s[2], 1.5, 0.5, uint64(800+i))
	}
}

func TestDgemmPackedOnViews(t *testing.T) {
	r := sim.NewRNG(31)
	big := randDense(r, 80, 80)
	a := big.View(3, 5, 40, 30)
	b := big.View(10, 40, 30, 35)
	c := matrix.NewDense(40, 35)
	c.FillRandom(r)
	want := c.Clone()
	DgemmNaive(NoTrans, NoTrans, 1, a.Clone(), b.Clone(), 1, want)
	DgemmPacked(1, a, b, 1, c)
	if d := c.MaxDiff(want); d > 1e-12 {
		t.Fatalf("view case diff %v", d)
	}
}

func TestDgemmPackedMatchesAxpyKernel(t *testing.T) {
	r := sim.NewRNG(32)
	a := randDense(r, 150, 120)
	b := randDense(r, 120, 140)
	c1 := matrix.NewDense(150, 140)
	c2 := matrix.NewDense(150, 140)
	Dgemm(NoTrans, NoTrans, 1, a, b, 0, c1)
	DgemmPacked(1, a, b, 0, c2)
	if d := c1.MaxDiff(c2); d > 1e-11 {
		t.Fatalf("kernels disagree by %v", d)
	}
}
