package blas

import (
	"math"
	"testing"

	"tianhe/internal/matrix"
	"tianhe/internal/sim"
	"tianhe/internal/sim/simtest"
)

// triangular builds a well-conditioned triangular matrix for the given uplo
// and diag; the unused triangle stays zero so op(A)*X products can be formed
// with plain DGEMM during verification. With diag == Unit the stored
// diagonal is poisoned, since a correct solver must never read it.
func triangular(r *sim.RNG, n int, uplo Uplo, diag Diag) (stored, effective *matrix.Dense) {
	stored = matrix.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			in := (uplo == Upper && j >= i) || (uplo == Lower && j <= i)
			if in {
				stored.Set(i, j, r.Float64()-0.5)
			}
		}
		stored.Set(i, i, 2+r.Float64()) // dominant diagonal
	}
	effective = stored.Clone()
	if diag == Unit {
		for i := 0; i < n; i++ {
			stored.Set(i, i, 1e33)
			effective.Set(i, i, 1)
		}
	}
	return stored, effective
}

func trsmCase(t *testing.T, side Side, uplo Uplo, tA Transpose, diag Diag, m, n int, alpha float64, seed uint64) {
	t.Helper()
	r := sim.NewRNG(seed)
	order := m
	if side == Right {
		order = n
	}
	stored, eff := triangular(r, order, uplo, diag)
	b0 := randDense(r, m, n)
	x := b0.Clone()
	Dtrsm(side, uplo, tA, diag, alpha, stored, x)

	// Verify op(A)*X == alpha*B (Left) or X*op(A) == alpha*B (Right).
	prod := matrix.NewDense(m, n)
	if side == Left {
		DgemmNaive(tA, NoTrans, 1, eff, x, 0, prod)
	} else {
		DgemmNaive(NoTrans, tA, 1, x, eff, 0, prod)
	}
	want := b0.Clone()
	for j := 0; j < n; j++ {
		Dscal(alpha, want.Col(j))
	}
	if d := prod.MaxDiff(want); d > 1e-9 {
		t.Fatalf("Dtrsm(side=%d uplo=%d tA=%v diag=%d) residual %v", side, uplo, tA, diag, d)
	}
}

func TestDtrsmAllSixteenVariants(t *testing.T) {
	seed := uint64(1)
	for _, side := range []Side{Left, Right} {
		for _, uplo := range []Uplo{Upper, Lower} {
			for _, tA := range []Transpose{NoTrans, Trans} {
				for _, diag := range []Diag{NonUnit, Unit} {
					side, uplo, tA, diag, s := side, uplo, tA, diag, seed
					name := map[Side]string{Left: "L", Right: "R"}[side] +
						uploName(uplo) + tA.String() + diagName(diag)
					t.Run(name, func(t *testing.T) {
						trsmCase(t, side, uplo, tA, diag, 11, 7, 1, s)
						trsmCase(t, side, uplo, tA, diag, 7, 11, 2.5, s+1000)
					})
					seed++
				}
			}
		}
	}
}

func TestDtrsmAlphaZero(t *testing.T) {
	r := sim.NewRNG(9)
	a, _ := triangular(r, 4, Lower, NonUnit)
	b := randDense(r, 4, 3)
	Dtrsm(Left, Lower, NoTrans, NonUnit, 0, a, b)
	if b.MaxAbs() != 0 {
		t.Fatal("alpha=0 must zero B")
	}
}

func TestDtrsmHPLHotPath(t *testing.T) {
	// The exact call HPL issues for the U12 panel: Left, Lower, NoTrans,
	// Unit. Check against a hand-built 3x3 system.
	a := matrix.NewDense(3, 3)
	a.Set(1, 0, 2)
	a.Set(2, 0, 3)
	a.Set(2, 1, 4)
	for i := 0; i < 3; i++ {
		a.Set(i, i, 999) // must be ignored under Unit
	}
	b := matrix.NewDense(3, 1)
	b.Set(0, 0, 1)
	b.Set(1, 0, 4)
	b.Set(2, 0, 14)
	Dtrsm(Left, Lower, NoTrans, Unit, 1, a, b)
	// Forward substitution with unit diagonal: x0=1, x1=4-2*1=2, x2=14-3*1-4*2=3.
	if b.At(0, 0) != 1 || b.At(1, 0) != 2 || b.At(2, 0) != 3 {
		t.Fatalf("hot path solve wrong: %v %v %v", b.At(0, 0), b.At(1, 0), b.At(2, 0))
	}
}

func TestDtrsmNonSquarePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-square A should panic")
		}
	}()
	Dtrsm(Left, Lower, NoTrans, NonUnit, 1, matrix.NewDense(2, 3), matrix.NewDense(2, 2))
}

func TestDtrsmSideMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Right side mismatch should panic")
		}
	}()
	Dtrsm(Right, Lower, NoTrans, NonUnit, 1, matrix.NewDense(3, 3), matrix.NewDense(2, 2))
}

func TestDlaswpRoundTrip(t *testing.T) {
	r := sim.NewRNG(12)
	a := randDense(r, 10, 6)
	orig := a.Clone()
	ipiv := []int{3, 1, 5, 9, 4}
	Dlaswp(a, ipiv, 0, len(ipiv))
	if a.Equal(orig) {
		t.Fatal("swaps should have changed the matrix")
	}
	DlaswpInverse(a, ipiv, 0, len(ipiv))
	if !a.Equal(orig) {
		t.Fatal("inverse swaps must restore the matrix")
	}
}

// TestDtrsmBlockedMatchesDtrsv: the left-looking solve on the kernels equals
// one Dtrsv per column bit for bit, at every order around and beyond the
// block and tile sizes and straddling the K block, with 1-3 columns of B
// (padded column groups) as well as more. Zeros and -0 are planted in B,
// and rows of L with an empty strict part carry them into X, so zero
// multipliers occur mid-solve (Dtrsv skips a zero x[l]; the kernels must
// skip the same steps); every third order also gets ±Inf or NaN in L's
// strict lower triangle and in B.
func TestDtrsmBlockedMatchesDtrsv(t *testing.T) {
	orders := []int{513}
	for n := 1; n <= 130; n++ {
		orders = append(orders, n)
	}
	for n := gemmKC - 6; n <= gemmKC+4; n++ {
		orders = append(orders, n)
	}
	nonFinite := []float64{math.Inf(1), math.Inf(-1), math.NaN()}
	forEachKernel(t, func(t *testing.T) {
		r := sim.NewRNG(77)
		for trial, n := range orders {
			l := offsetView(r, n, n)
			for j := 0; j < n; j++ {
				Dscal(min(0.125, 16/float64(n)), l.Col(j)) // keeps the solution in range
				l.Set(j, j, 1+r.Float64())
			}
			for i := 1; i < n; i += 1 + r.Intn(8) {
				for j := 0; j < i; j++ {
					l.Set(i, j, 0)
				}
			}
			cols := 1 + r.Intn(13)
			if trial%2 == 0 {
				cols = 1 + r.Intn(3)
			}
			b := offsetView(r, n, cols)
			for z := 0; z < n*cols/8; z++ {
				b.Set(r.Intn(n), r.Intn(cols), math.Copysign(0, float64(r.Intn(2))-0.5))
			}
			if trial%4 == 1 {
				// A group of four columns zero throughout, like LU's
				// augmented [b | 0 … 0]: every K run it takes is all zero.
				for j := 4; j < min(8, cols); j++ {
					clear(b.Col(j))
				}
			}
			if trial%3 == 0 {
				b.Set(r.Intn(n), r.Intn(cols), nonFinite[r.Intn(3)])
				if n > 1 {
					i := 1 + r.Intn(n-1)
					l.Set(i, r.Intn(i), nonFinite[r.Intn(3)])
				}
			}
			for _, diag := range []Diag{Unit, NonUnit} {
				want, got := b.Clone(), b.Clone()
				for j := 0; j < cols; j++ {
					Dtrsv(Lower, NoTrans, diag, l, want.Col(j))
				}
				Dtrsm(Left, Lower, NoTrans, diag, 1, l, got)
				if !sameBits(got.Data, want.Data) {
					t.Fatalf("order %d, %d columns, diag %v: blocked Dtrsm differs from Dtrsv per column", n, cols, diag)
				}
			}
		}
	})
}

// TestDtrsmSkipsZeroPivots: with ±Inf everywhere in L's strict lower
// triangle and B all ±0, every step of Dtrsv is a skipped zero multiplier
// and X = B. A path that multiplies by a zero instead of skipping it turns
// 0*Inf into NaN, so every pivot position of every block is checked.
func TestDtrsmSkipsZeroPivots(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		r := sim.NewRNG(31)
		for n := 1; n <= 40; n++ {
			l := offsetView(r, n, n)
			for j := 0; j < n; j++ {
				for i := j + 1; i < n; i++ {
					l.Set(i, j, math.Inf(2*r.Intn(2)-1))
				}
			}
			b := offsetView(r, n, 1+r.Intn(6))
			for j := 0; j < b.Cols; j++ {
				for i := range b.Col(j) {
					b.Set(i, j, math.Copysign(0, float64(r.Intn(2))-0.5))
				}
			}
			for _, diag := range []Diag{Unit, NonUnit} {
				want, got := b.Clone(), b.Clone()
				for j := 0; j < b.Cols; j++ {
					Dtrsv(Lower, NoTrans, diag, l, want.Col(j))
				}
				Dtrsm(Left, Lower, NoTrans, diag, 1, l, got)
				if !sameBits(got.Data, want.Data) {
					t.Fatalf("order %d, diag %v: a zero multiplier was not skipped", n, diag)
				}
			}
		}
	})
}

// TestDtrsmU12NoAlloc: LU's U12 solve at N=1024, NB=64 allocates nothing.
func TestDtrsmU12NoAlloc(t *testing.T) {
	if simtest.RaceEnabled {
		t.Skip("race-detector shadow memory skews allocation accounting")
	}
	r := sim.NewRNG(5)
	l, u12 := randDense(r, 64, 64), randDense(r, 64, 960)
	forEachKernel(t, func(t *testing.T) {
		solve := func() { Dtrsm(Left, Lower, NoTrans, Unit, 1, l, u12) }
		if avg := testing.AllocsPerRun(5, solve); avg != 0 {
			t.Fatalf("the U12 solve allocates %v objects per call", avg)
		}
	})
}

// TestDlaswpMatchesRowOuter: applying the whole pivot range inside one
// column equals the textbook row-by-row interchange, forwards and inverse,
// with repeated and identity pivots and a partial range.
func TestDlaswpMatchesRowOuter(t *testing.T) {
	r := sim.NewRNG(88)
	for trial := 0; trial < 50; trial++ {
		rows, cols := 1+r.Intn(40), r.Intn(9)
		ipiv := make([]int, 1+r.Intn(rows))
		for k := range ipiv {
			switch r.Intn(3) {
			case 0:
				ipiv[k] = k // identity
			case 1:
				ipiv[k] = ipiv[r.Intn(k+1)] // repeats an earlier target
			default:
				ipiv[k] = k + r.Intn(rows-k)
			}
		}
		k0 := r.Intn(len(ipiv) + 1)
		k1 := k0 + r.Intn(len(ipiv)-k0+1)
		a := offsetView(r, rows, cols)

		want := a.Clone()
		for k := k0; k < k1; k++ {
			SwapRows(want, k, ipiv[k])
		}
		got := a.Clone()
		Dlaswp(got, ipiv, k0, k1)
		if !got.Equal(want) {
			t.Fatalf("trial %d: Dlaswp %dx%d ipiv=%v [%d,%d) differs from row-outer swaps", trial, rows, cols, ipiv, k0, k1)
		}
		for k := k1 - 1; k >= k0; k-- {
			SwapRows(want, k, ipiv[k])
		}
		DlaswpInverse(got, ipiv, k0, k1)
		if !got.Equal(want) || !got.Equal(a) {
			t.Fatalf("trial %d: DlaswpInverse does not undo Dlaswp like row-outer swaps", trial)
		}
	}
}

func TestDlaswpIdentityPivots(t *testing.T) {
	r := sim.NewRNG(13)
	a := randDense(r, 5, 5)
	orig := a.Clone()
	Dlaswp(a, []int{0, 1, 2, 3, 4}, 0, 5)
	if !a.Equal(orig) {
		t.Fatal("identity pivots must be a no-op")
	}
}

func TestDlaswpPartialRange(t *testing.T) {
	r := sim.NewRNG(14)
	a := randDense(r, 6, 2)
	orig := a.Clone()
	ipiv := []int{5, 0, 4, 3}
	Dlaswp(a, ipiv, 2, 4) // only k=2,3 applied
	// Row 2 <-> 4 swap, row 3 self-swap.
	if a.At(2, 0) != orig.At(4, 0) || a.At(4, 0) != orig.At(2, 0) {
		t.Fatal("partial range applied wrong rows")
	}
	if a.At(0, 0) != orig.At(0, 0) || a.At(5, 0) != orig.At(5, 0) {
		t.Fatal("rows outside the range must be untouched")
	}
}

func TestDlaswpBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range pivot range should panic")
		}
	}()
	Dlaswp(matrix.NewDense(3, 3), []int{0}, 0, 2)
}

func TestSwapRows(t *testing.T) {
	r := sim.NewRNG(15)
	a := randDense(r, 4, 3)
	orig := a.Clone()
	SwapRows(a, 0, 3)
	for j := 0; j < 3; j++ {
		if a.At(0, j) != orig.At(3, j) || a.At(3, j) != orig.At(0, j) {
			t.Fatal("SwapRows failed")
		}
	}
	SwapRows(a, 1, 1) // self swap: no-op
	if a.At(1, 0) != orig.At(1, 0) {
		t.Fatal("self swap must not modify")
	}
}

// TestTrsmBlockMatchesPortable: every kernel solves a diagonal block and
// writes its multipliers, first zero row and live flag exactly as the
// portable loop does, for Unit and NonUnit, 1 to 4 columns (a short group
// repeats its last column), with zero pivots (rows of X that are zero when
// reached, so their step is skipped, and zeros on L's diagonal under
// NonUnit), and with NaN and ±Inf in X and L.
func TestTrsmBlockMatchesPortable(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		r := sim.NewRNG(8128)
		for trial := 0; trial < 600; trial++ {
			rows, nr := gemmMR, 1+r.Intn(gemmNR)
			if trial%5 == 4 {
				rows = 1 + r.Intn(gemmMR)
			}
			l := offsetView(r, rows, rows)
			x := offsetView(r, rows, nr)
			for p := 0; p < rows; p++ {
				if r.Intn(3) == 0 {
					l.Set(p, p, 0)
				}
				if r.Intn(3) == 0 {
					for jj := 0; jj < nr; jj++ {
						if r.Intn(2) == 0 {
							// With L's column p above it zero, x[p] is still
							// zero when its pivot is reached.
							x.Set(p, jj, math.Copysign(0, float64(r.Intn(2))-0.5))
							for q := 0; q < p; q++ {
								l.Set(p, q, 0)
							}
						}
					}
				}
			}
			if trial%2 == 1 {
				x.Set(r.Intn(rows), r.Intn(nr), multiplierSpecials[2+r.Intn(3)])
				l.Set(r.Intn(rows), r.Intn(rows), multiplierSpecials[2+r.Intn(3)])
			}
			for _, diag := range []Diag{Unit, NonUnit} {
				got, want := x.Clone(), x.Clone()
				var gotMult, wantMult [gemmMR * gemmNR]float64
				gotZero, gotLive := trsmBlock(diag, rows, nr, l.Data, l.Stride, got.Data, got.Stride, gotMult[:])
				var wantZero int
				var wantLive bool
				withKernel(kernelPortable, func() {
					wantZero, wantLive = trsmBlock(diag, rows, nr, l.Data, l.Stride, want.Data, want.Stride, wantMult[:])
				})
				if !sameBits(got.Data, want.Data) || !sameBits(gotMult[:rows*gemmNR], wantMult[:rows*gemmNR]) ||
					gotZero != wantZero || gotLive != wantLive {
					t.Fatalf("trial %d: %dx%d block, diag %v: zero %d live %v, want %d %v (X equal %v, multipliers equal %v)",
						trial, rows, nr, diag, gotZero, gotLive, wantZero, wantLive,
						sameBits(got.Data, want.Data), sameBits(gotMult[:], wantMult[:]))
				}
			}
		}
	})
}
