package bench

import (
	"strings"
	"testing"
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

func TestSeriesLast(t *testing.T) {
	s := &Series{Name: "a"}
	s.Add(1, 10)
	s.Add(5, 50)
	if p := s.Last(); p.X != 5 || p.Y != 50 {
		t.Fatalf("Last = %+v", p)
	}
}

func TestSeriesLastEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Last on empty series should panic")
		}
	}()
	(&Series{}).Last()
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

func TestTableLayout(t *testing.T) {
	a := &Series{Name: "alpha"}
	a.Add(1, 1.5)
	a.Add(2, 2.5)
	b := &Series{Name: "beta"}
	b.Add(2, 9)
	var sb strings.Builder
	Table(&sb, "N", "GFLOPS", a, b)
	out := sb.String()
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "beta") {
		t.Fatalf("headers missing:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// header + rule + 2 rows + unit line
	if len(lines) != 5 {
		t.Fatalf("table has %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[2], "1.50") || !strings.Contains(lines[2], "-") {
		t.Fatalf("row for x=1 should show alpha value and a dash:\n%s", out)
	}
	if !strings.Contains(lines[4], "GFLOPS") {
		t.Fatal("unit footer missing")
	}
}

func TestTableSortsX(t *testing.T) {
	a := &Series{Name: "a"}
	a.Add(10, 1)
	a.Add(2, 1)
	var sb strings.Builder
	Table(&sb, "N", "", a)
	out := sb.String()
	if strings.Index(out, "\n2 ") > strings.Index(out, "\n10 ") && strings.Index(out, "\n10 ") >= 0 {
		t.Fatalf("rows not sorted by x:\n%s", out)
	}
}
