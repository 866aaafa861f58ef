package blas

import (
	"math"
	"testing"
	"testing/quick"

	"tianhe/internal/sim"
	"tianhe/internal/sim/simtest"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func randSlice(r *sim.RNG, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = r.Float64()*2 - 1
	}
	return v
}

func TestDaxpy(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{10, 20, 30}
	Daxpy(2, x, y)
	want := []float64{12, 24, 36}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("y[%d] = %v, want %v", i, y[i], want[i])
		}
	}
}

func TestDaxpyZeroAlpha(t *testing.T) {
	y := []float64{1, 2}
	Daxpy(0, []float64{5, 5}, y)
	if y[0] != 1 || y[1] != 2 {
		t.Fatal("alpha=0 must leave y untouched")
	}
}

func TestDaxpyUnrollTail(t *testing.T) {
	// Lengths around the unroll factor exercise the remainder loop.
	for n := 0; n <= 9; n++ {
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = float64(i + 1)
		}
		Daxpy(3, x, y)
		for i := range y {
			if y[i] != 3*float64(i+1) {
				t.Fatalf("n=%d: y[%d] = %v", n, i, y[i])
			}
		}
	}
}

func TestDaxpyMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch should panic")
		}
	}()
	Daxpy(1, []float64{1}, []float64{1, 2})
}

func TestDscal(t *testing.T) {
	x := []float64{1, -2, 4}
	Dscal(-0.5, x)
	if x[0] != -0.5 || x[1] != 1 || x[2] != -2 {
		t.Fatalf("Dscal result %v", x)
	}
}

func TestDdot(t *testing.T) {
	if got := Ddot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Fatalf("Ddot = %v", got)
	}
}

func TestDasum(t *testing.T) {
	if got := Dasum([]float64{-1, 2, -3}); got != 6 {
		t.Fatalf("Dasum = %v", got)
	}
}

func TestIdamax(t *testing.T) {
	if got := Idamax([]float64{1, -5, 3}); got != 1 {
		t.Fatalf("Idamax = %d", got)
	}
	if got := Idamax(nil); got != -1 {
		t.Fatalf("Idamax(nil) = %d", got)
	}
}

func TestIdamaxTieLowestIndex(t *testing.T) {
	if got := Idamax([]float64{-2, 2, 2}); got != 0 {
		t.Fatalf("tie must resolve to lowest index, got %d", got)
	}
}

func TestDdotCommutative(t *testing.T) {
	r := sim.NewRNG(1)
	f := func(n uint8) bool {
		x := randSlice(r, int(n%64))
		y := randSlice(r, len(x))
		return Ddot(x, y) == Ddot(y, x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDaxpyLinearity(t *testing.T) {
	r := sim.NewRNG(3)
	f := func(n uint8, ai int8) bool {
		alpha := float64(ai) / 16
		x := randSlice(r, int(n%32)+1)
		y1 := randSlice(r, len(x))
		y2 := append([]float64(nil), y1...)
		// Daxpy(a, x, y) twice equals Daxpy(2a, x, y) in exact arithmetic for
		// power-of-two alpha scaling; use alpha multiples of 1/16 so the
		// arithmetic stays exact for the small values used here.
		Daxpy(alpha, x, y1)
		Daxpy(alpha, x, y1)
		Daxpy(2*alpha, x, y2)
		for i := range y1 {
			if !almostEqual(y1[i], y2[i], 1e-13) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestDaxpyMatchesPortable: every kernel's Daxpy equals the portable loop
// bit for bit at every length 0-70 (whole SIMD runs, their tails, and
// lengths too short for a run), at slice offsets 0-7 of x and y, with
// alpha ±0, ±1, subnormal, NaN and Inf, with non-finite entries in x and y,
// and with x and y the same slice. Memory around y is left alone.
func TestDaxpyMatchesPortable(t *testing.T) {
	alphas := []float64{0, math.Copysign(0, -1), 1, -1, 5e-324, math.NaN(), math.Inf(1), 0.37}
	forEachKernel(t, func(t *testing.T) {
		r := sim.NewRNG(70)
		for n := 0; n <= 70; n++ {
			for off := 0; off < 8; off++ {
				for _, alpha := range alphas {
					xs, ys := randSlice(r, n+16), randSlice(r, n+16)
					if n > 0 && off%2 == 1 {
						xs[off+r.Intn(n)] = multiplierSpecials[r.Intn(len(multiplierSpecials))]
						ys[7-off+r.Intn(n)] = multiplierSpecials[r.Intn(len(multiplierSpecials))]
					}
					x, y := xs[off:off+n], ys[7-off:7-off+n]
					want := append([]float64(nil), ys...)
					withKernel(kernelPortable, func() { Daxpy(alpha, x, want[7-off:7-off+n]) })
					Daxpy(alpha, x, y)
					if !sameBits(ys, want) {
						t.Fatalf("n %d offsets %d/%d alpha %v: Daxpy departs from the portable loop", n, off, 7-off, alpha)
					}
					want = append(want[:0], ys...)
					withKernel(kernelPortable, func() { Daxpy(alpha, want[7-off:7-off+n], want[7-off:7-off+n]) })
					Daxpy(alpha, y, y)
					if !sameBits(ys, want) {
						t.Fatalf("n %d offset %d alpha %v: Daxpy(x, x) departs from the portable loop", n, 7-off, alpha)
					}
				}
			}
		}
	})
}

// TestDaxpyDgerNoAlloc: Daxpy, and Dger on a 2-D panel's 384x63 trailing
// block, allocate nothing on any kernel.
func TestDaxpyDgerNoAlloc(t *testing.T) {
	if simtest.RaceEnabled {
		t.Skip("race-detector shadow memory skews allocation accounting")
	}
	r := sim.NewRNG(6)
	x, y := randSlice(r, 384), randSlice(r, 63)
	a := randDense(r, 384, 63)
	forEachKernel(t, func(t *testing.T) {
		if avg := testing.AllocsPerRun(20, func() { Daxpy(1e-9, x, a.Col(0)) }); avg != 0 {
			t.Fatalf("Daxpy allocates %v objects per call", avg)
		}
		if avg := testing.AllocsPerRun(20, func() { Dger(-1e-9, x, y, a) }); avg != 0 {
			t.Fatalf("Dger allocates %v objects per call", avg)
		}
	})
}
