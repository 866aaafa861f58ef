package blas

import (
	"math"
	"testing"
	"testing/quick"

	"tianhe/internal/sim"
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
