package matrix

import (
	"math"
	"testing"
	"testing/quick"

	"tianhe/internal/sim"
)

func TestNewDenseShape(t *testing.T) {
	m := NewDense(3, 4)
	if m.Rows != 3 || m.Cols != 4 || m.Stride != 3 || len(m.Data) != 12 {
		t.Fatalf("unexpected shape: %+v", m)
	}
	for j := 0; j < 4; j++ {
		for i := 0; i < 3; i++ {
			if m.At(i, j) != 0 {
				t.Fatal("new matrix must be zeroed")
			}
		}
	}
}

func TestNewDenseNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative dims should panic")
		}
	}()
	NewDense(-1, 2)
}

func TestAtSetColumnMajor(t *testing.T) {
	m := NewDense(2, 3)
	m.Set(1, 2, 7)
	if m.Data[2*m.Stride+1] != 7 {
		t.Fatal("storage is not column-major")
	}
	if m.At(1, 2) != 7 {
		t.Fatal("At did not read back Set value")
	}
}

func TestAtOutOfRangePanics(t *testing.T) {
	m := NewDense(2, 2)
	for _, c := range [][2]int{{-1, 0}, {2, 0}, {0, -1}, {0, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("At(%d,%d) should panic", c[0], c[1])
				}
			}()
			m.At(c[0], c[1])
		}()
	}
}

func TestFromColMajor(t *testing.T) {
	data := []float64{1, 2, 3, 4, 5, 6}
	m := FromColMajor(2, 3, 2, data)
	if m.At(0, 0) != 1 || m.At(1, 0) != 2 || m.At(0, 2) != 5 {
		t.Fatal("FromColMajor element mapping wrong")
	}
}

func TestFromColMajorValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ld < rows should panic")
		}
	}()
	FromColMajor(3, 2, 2, make([]float64, 10))
}

func TestViewAliases(t *testing.T) {
	m := NewDense(4, 4)
	v := m.View(1, 1, 2, 2)
	v.Set(0, 0, 9)
	if m.At(1, 1) != 9 {
		t.Fatal("view must alias parent storage")
	}
	if v.Stride != m.Stride {
		t.Fatal("view must inherit the parent stride")
	}
}

func TestViewBounds(t *testing.T) {
	m := NewDense(3, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range view should panic")
		}
	}()
	m.View(2, 2, 2, 2)
}

func TestViewEmpty(t *testing.T) {
	m := NewDense(3, 3)
	v := m.View(1, 1, 0, 2)
	if v.Rows != 0 || v.Cols != 2 {
		t.Fatalf("empty view shape: %+v", v)
	}
}

func TestCloneIndependent(t *testing.T) {
	m := NewDense(2, 2)
	m.Set(0, 0, 5)
	c := m.Clone()
	c.Set(0, 0, 1)
	if m.At(0, 0) != 5 {
		t.Fatal("clone must not alias source")
	}
	if c.Stride != 2 {
		t.Fatal("clone must use a tight stride")
	}
}

func TestCloneOfViewTightens(t *testing.T) {
	m := NewDense(5, 5)
	m.Set(2, 2, 3)
	c := m.View(2, 2, 2, 2).Clone()
	if c.At(0, 0) != 3 || c.Stride != 2 {
		t.Fatalf("clone of view: %+v", c)
	}
}

func TestCopyFromShapeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("shape mismatch should panic")
		}
	}()
	NewDense(2, 2).CopyFrom(NewDense(3, 2))
}

func TestZeroAndFill(t *testing.T) {
	m := NewDense(3, 3)
	m.Fill(2.5)
	if m.At(2, 2) != 2.5 {
		t.Fatal("Fill failed")
	}
	m.Zero()
	if m.MaxAbs() != 0 {
		t.Fatal("Zero failed")
	}
}

func TestIdentity(t *testing.T) {
	m := NewDense(3, 3)
	m.Fill(9)
	m.Identity()
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if m.At(i, j) != want {
				t.Fatalf("identity (%d,%d) = %v", i, j, m.At(i, j))
			}
		}
	}
}

func TestIdentityNonSquarePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-square Identity should panic")
		}
	}()
	NewDense(2, 3).Identity()
}

func TestFillRandomDeterministic(t *testing.T) {
	a, b := NewDense(8, 8), NewDense(8, 8)
	a.FillRandom(sim.NewRNG(11))
	b.FillRandom(sim.NewRNG(11))
	if !a.Equal(b) {
		t.Fatal("same seed must produce the same matrix")
	}
	if a.MaxAbs() > 0.5 {
		t.Fatal("FillRandom range exceeded [-0.5, 0.5)")
	}
}

func TestFillDiagonallyDominant(t *testing.T) {
	m := NewDense(6, 6)
	m.FillDiagonallyDominant(sim.NewRNG(3))
	for i := 0; i < 6; i++ {
		var off float64
		for j := 0; j < 6; j++ {
			if i != j {
				off += math.Abs(m.At(i, j))
			}
		}
		if math.Abs(m.At(i, i)) <= off {
			t.Fatalf("row %d not diagonally dominant", i)
		}
	}
}

func TestTranspose(t *testing.T) {
	m := NewDense(2, 3)
	m.Set(0, 1, 4)
	m.Set(1, 2, 7)
	tr := m.Transpose()
	if tr.Rows != 3 || tr.Cols != 2 || tr.At(1, 0) != 4 || tr.At(2, 1) != 7 {
		t.Fatal("transpose wrong")
	}
}

func TestTransposeInvolution(t *testing.T) {
	m := NewDense(5, 7)
	m.FillRandom(sim.NewRNG(2))
	if !m.Transpose().Transpose().Equal(m) {
		t.Fatal("double transpose must be identity")
	}
}

func TestNorms(t *testing.T) {
	m := NewDense(2, 2)
	m.Set(0, 0, 1)
	m.Set(0, 1, -2)
	m.Set(1, 0, 3)
	m.Set(1, 1, 4)
	if m.NormInf() != 7 { // max row sum: |3|+|4|
		t.Fatalf("NormInf = %v", m.NormInf())
	}
	if m.NormOne() != 6 { // max col sum: |-2|+|4|
		t.Fatalf("NormOne = %v", m.NormOne())
	}
	want := math.Sqrt(1 + 4 + 9 + 16)
	if math.Abs(m.NormFrob()-want) > 1e-15 {
		t.Fatalf("NormFrob = %v", m.NormFrob())
	}
	if m.MaxAbs() != 4 {
		t.Fatalf("MaxAbs = %v", m.MaxAbs())
	}
}

func TestNormTransposeDuality(t *testing.T) {
	m := NewDense(4, 6)
	m.FillRandom(sim.NewRNG(5))
	if math.Abs(m.NormOne()-m.Transpose().NormInf()) > 1e-14 {
		t.Fatal("NormOne(A) must equal NormInf(A^T)")
	}
}

func TestMaxDiff(t *testing.T) {
	a := NewDense(2, 2)
	b := a.Clone()
	b.Set(1, 1, 0.25)
	if a.MaxDiff(b) != 0.25 {
		t.Fatalf("MaxDiff = %v", a.MaxDiff(b))
	}
}

func TestEqualShapes(t *testing.T) {
	if NewDense(2, 2).Equal(NewDense(2, 3)) {
		t.Fatal("different shapes must not be equal")
	}
}

func TestColSlice(t *testing.T) {
	m := NewDense(3, 2)
	m.Col(1)[2] = 8
	if m.At(2, 1) != 8 {
		t.Fatal("Col must alias storage")
	}
}

func TestMulVec(t *testing.T) {
	a := NewDense(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 3)
	a.Set(1, 1, 4)
	y := MulVec(a, []float64{1, 1})
	if y[0] != 3 || y[1] != 7 {
		t.Fatalf("MulVec = %v", y)
	}
}

func TestMulVecIdentityProperty(t *testing.T) {
	r := sim.NewRNG(17)
	f := func(seed uint32) bool {
		n := 1 + int(seed%16)
		id := NewDense(n, n)
		id.Identity()
		x := NewVector(n)
		FillRandomVector(x, r)
		y := MulVec(id, x)
		return VecMaxDiff(x, y) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestVectorNorms(t *testing.T) {
	v := []float64{-3, 1, 2}
	if VecNormInf(v) != 3 {
		t.Fatal("vector norm wrong")
	}
}

func TestVecMaxDiffMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch should panic")
		}
	}()
	VecMaxDiff([]float64{1}, []float64{1, 2})
}

func TestViewOfViewComposes(t *testing.T) {
	m := NewDense(6, 6)
	m.Set(3, 3, 5)
	v := m.View(1, 1, 4, 4).View(2, 2, 2, 2)
	if v.At(0, 0) != 5 {
		t.Fatal("nested views must compose offsets")
	}
}
