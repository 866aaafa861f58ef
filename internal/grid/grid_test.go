package grid

import (
	"testing"
	"testing/quick"
)

func TestCoordsRankRoundTrip(t *testing.T) {
	g := New(3, 5)
	for r := 0; r < g.Size(); r++ {
		p, q := g.Coords(r)
		if g.Rank(p, q) != r {
			t.Fatalf("round trip failed for rank %d", r)
		}
	}
}

func TestRowMajorLayout(t *testing.T) {
	g := New(2, 4)
	if p, q := g.Coords(5); p != 1 || q != 1 {
		t.Fatalf("coords(5) = (%d,%d)", p, q)
	}
}

func TestSquarish(t *testing.T) {
	cases := map[int][2]int{
		1:    {1, 1},
		4:    {2, 2},
		6:    {2, 3},
		64:   {8, 8},
		5120: {64, 80},
		7:    {1, 7},
	}
	for size, want := range cases {
		g := Squarish(size)
		if g.P != want[0] || g.Q != want[1] {
			t.Fatalf("Squarish(%d) = %dx%d, want %dx%d", size, g.P, g.Q, want[0], want[1])
		}
	}
}

func TestSquarishTianHe(t *testing.T) {
	// The paper's full machine: 5120 processes in a 64 x 80 grid.
	g := Squarish(5120)
	if g.P != 64 || g.Q != 80 {
		t.Fatalf("full-machine grid = %dx%d, paper uses 64x80", g.P, g.Q)
	}
}

func TestCyclicOwnership(t *testing.T) {
	if CyclicOwner(7, 3) != 1 || CyclicLocalIndex(7, 3) != 2 {
		t.Fatal("cyclic maps wrong")
	}
}

func TestCyclicBlocksSum(t *testing.T) {
	f := func(nb uint8, cnt uint8) bool {
		n := int(nb)
		count := int(cnt)%8 + 1
		total := 0
		for i := 0; i < count; i++ {
			owned := 0
			for b := i; b < n; b += count {
				owned++
			}
			if CyclicBlocks(n, i, count) != owned {
				return false
			}
			total += owned
		}
		return total == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestValidationPanics(t *testing.T) {
	for _, f := range []func(){
		func() { New(0, 3) },
		func() { Squarish(0) },
		func() { New(2, 2).Coords(4) },
		func() { New(2, 2).Rank(2, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}
