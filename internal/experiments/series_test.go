package experiments

import (
	"context"
	"testing"

	"tianhe/internal/sweep"
)

func TestSeriesAddY(t *testing.T) {
	s := &Series{Name: "a"}
	s.Add(1, 10)
	s.Add(2, 20)
	if y, ok := s.Y(2); !ok || y != 20 {
		t.Fatalf("Y(2) = %v, %v", y, ok)
	}
	if _, ok := s.Y(3); ok {
		t.Fatal("missing x must report !ok")
	}
}

func TestGainOver(t *testing.T) {
	base := &Series{}
	base.Add(1, 100)
	base.Add(2, 200)
	s := &Series{}
	s.Add(1, 110)
	s.Add(2, 240)
	// Gains: +10% and +20% -> mean +15%.
	if g := s.GainOver(base, nil); g < 0.1499 || g > 0.1501 {
		t.Fatalf("gain = %v", g)
	}
	if g := s.GainOver(base, func(x float64) bool { return x > 1 }); g < 0.1999 || g > 0.2001 {
		t.Fatalf("filtered gain = %v", g)
	}
	if (&Series{}).GainOver(base, nil) != 0 {
		t.Fatal("empty series gain must be 0")
	}
}

func TestGainOverIgnoresMissingBase(t *testing.T) {
	base := &Series{}
	base.Add(1, 100)
	s := &Series{}
	s.Add(1, 150)
	s.Add(2, 999) // no base point: must be skipped
	if g := s.GainOver(base, nil); g != 0.5 {
		t.Fatalf("gain = %v", g)
	}
}

func TestSeriesOrdered(t *testing.T) {
	xs := []float64{4, 1, 9, 2}
	s := newSeries("sq", xs, sweep.Map(context.Background(), 3, xs, func(i int, x float64) float64 { return x * x }))
	if s.Name != "sq" || len(s.Points) != len(xs) {
		t.Fatalf("bad series %+v", s)
	}
	for i, x := range xs {
		if s.Points[i].X != x || s.Points[i].Y != x*x {
			t.Fatalf("point %d = %+v, want (%g, %g)", i, s.Points[i], x, x*x)
		}
	}
}
