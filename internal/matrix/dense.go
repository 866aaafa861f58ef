// Package matrix provides the column-major dense matrix type shared by the
// BLAS, LU factorization and hybrid DGEMM layers. Column-major storage with
// an explicit leading dimension matches the HPL/LAPACK convention the paper's
// code base uses, and lets sub-panels of a larger matrix be described without
// copying.
package matrix

import (
	"fmt"
	"math"

	"tianhe/internal/sim"
)

// Dense is a column-major matrix view: element (i, j) lives at
// Data[j*Stride+i]. A Dense may own its backing array or alias a window of a
// larger matrix (see View); the arithmetic packages never care which.
type Dense struct {
	Rows, Cols int
	Stride     int // leading dimension, >= Rows
	Data       []float64
}

// NewDense allocates a zeroed r×c matrix with a tight leading dimension.
func NewDense(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("matrix: negative dimensions %dx%d", r, c))
	}
	return &Dense{Rows: r, Cols: c, Stride: max(r, 1), Data: make([]float64, r*c)}
}

// FromColMajor wraps existing column-major data with leading dimension ld.
func FromColMajor(r, c, ld int, data []float64) *Dense {
	if ld < r {
		panic(fmt.Sprintf("matrix: leading dimension %d < rows %d", ld, r))
	}
	if need := minBacking(r, c, ld); len(data) < need {
		panic(fmt.Sprintf("matrix: backing slice too short: %d < %d", len(data), need))
	}
	return &Dense{Rows: r, Cols: c, Stride: ld, Data: data}
}

func minBacking(r, c, ld int) int {
	if r == 0 || c == 0 {
		return 0
	}
	return (c-1)*ld + r
}

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 {
	m.check(i, j)
	return m.Data[j*m.Stride+i]
}

// Set stores v into element (i, j).
func (m *Dense) Set(i, j int, v float64) {
	m.check(i, j)
	m.Data[j*m.Stride+i] = v
}

func (m *Dense) check(i, j int) {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("matrix: index (%d,%d) out of %dx%d", i, j, m.Rows, m.Cols))
	}
}

// Col returns the storage slice of column j (length Rows).
func (m *Dense) Col(j int) []float64 {
	if j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("matrix: column %d out of %d", j, m.Cols))
	}
	if m.Rows == 0 {
		return nil
	}
	return m.Data[j*m.Stride : j*m.Stride+m.Rows]
}

// View returns the r×c window whose top-left corner is (i, j), sharing
// storage with m. Mutations through the view are visible in m.
func (m *Dense) View(i, j, r, c int) *Dense {
	if r < 0 || c < 0 || i < 0 || j < 0 || i+r > m.Rows || j+c > m.Cols {
		panic(fmt.Sprintf("matrix: view (%d,%d,%d,%d) out of %dx%d", i, j, r, c, m.Rows, m.Cols))
	}
	if r == 0 || c == 0 {
		return &Dense{Rows: r, Cols: c, Stride: m.Stride}
	}
	off := j*m.Stride + i
	return &Dense{Rows: r, Cols: c, Stride: m.Stride, Data: m.Data[off : off+minBacking(r, c, m.Stride)]}
}

// Clone returns a freshly allocated deep copy with a tight stride.
func (m *Dense) Clone() *Dense {
	out := NewDense(m.Rows, m.Cols)
	out.CopyFrom(m)
	return out
}

// CopyFrom copies src (same shape) into m.
func (m *Dense) CopyFrom(src *Dense) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(fmt.Sprintf("matrix: copy shape mismatch %dx%d <- %dx%d", m.Rows, m.Cols, src.Rows, src.Cols))
	}
	for j := 0; j < m.Cols; j++ {
		copy(m.Col(j), src.Col(j))
	}
}

// Zero sets every element to 0.
func (m *Dense) Zero() {
	for j := 0; j < m.Cols; j++ {
		col := m.Col(j)
		for i := range col {
			col[i] = 0
		}
	}
}

// Fill sets every element to v.
func (m *Dense) Fill(v float64) {
	for j := 0; j < m.Cols; j++ {
		col := m.Col(j)
		for i := range col {
			col[i] = v
		}
	}
}

// Identity overwrites m (which must be square) with the identity matrix.
func (m *Dense) Identity() {
	if m.Rows != m.Cols {
		panic("matrix: Identity on non-square matrix")
	}
	m.Zero()
	for i := 0; i < m.Rows; i++ {
		m.Set(i, i, 1)
	}
}

// FillRandom fills m with uniform values in [-0.5, 0.5) from the given
// stream, matching the HPL test-matrix distribution.
func (m *Dense) FillRandom(r *sim.RNG) {
	for j := 0; j < m.Cols; j++ {
		r.FillCentered(m.Col(j))
	}
}

// FillDiagonallyDominant fills m with random values and then adds Rows to
// each diagonal element, guaranteeing a well-conditioned LU without pivoting
// surprises. Used by tests that need a benign matrix.
func (m *Dense) FillDiagonallyDominant(r *sim.RNG) {
	m.FillRandom(r)
	n := min(m.Rows, m.Cols)
	for i := 0; i < n; i++ {
		m.Set(i, i, m.At(i, i)+float64(m.Rows))
	}
}

// Transpose returns a newly allocated transpose of m.
func (m *Dense) Transpose() *Dense {
	out := NewDense(m.Cols, m.Rows)
	for j := 0; j < m.Cols; j++ {
		col := m.Col(j)
		for i := range col {
			out.Set(j, i, col[i])
		}
	}
	return out
}

// Equal reports exact element-wise equality of two same-shaped matrices.
func (m *Dense) Equal(o *Dense) bool {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		return false
	}
	for j := 0; j < m.Cols; j++ {
		a, b := m.Col(j), o.Col(j)
		for i := range a {
			//lint:ignore floateq bitwise equality is this method's documented contract; MaxDiff is the tolerant comparison
			if a[i] != b[i] {
				return false
			}
		}
	}
	return true
}

// MaxDiff returns the largest absolute element-wise difference between two
// same-shaped matrices.
func (m *Dense) MaxDiff(o *Dense) float64 {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		panic("matrix: MaxDiff shape mismatch")
	}
	var d float64
	for j := 0; j < m.Cols; j++ {
		a, b := m.Col(j), o.Col(j)
		for i := range a {
			if v := math.Abs(a[i] - b[i]); v > d {
				d = v
			}
		}
	}
	return d
}

// NormInf returns the infinity norm (max absolute row sum).
func (m *Dense) NormInf() float64 {
	sums := make([]float64, m.Rows)
	for j := 0; j < m.Cols; j++ {
		col := m.Col(j)
		for i, v := range col {
			sums[i] += math.Abs(v)
		}
	}
	var mx float64
	for _, s := range sums {
		if s > mx {
			mx = s
		}
	}
	return mx
}

// NormOne returns the 1-norm (max absolute column sum).
func (m *Dense) NormOne() float64 {
	var mx float64
	for j := 0; j < m.Cols; j++ {
		var s float64
		for _, v := range m.Col(j) {
			s += math.Abs(v)
		}
		if s > mx {
			mx = s
		}
	}
	return mx
}

// NormFrob returns the Frobenius norm.
func (m *Dense) NormFrob() float64 {
	var s float64
	for j := 0; j < m.Cols; j++ {
		for _, v := range m.Col(j) {
			s += float64(v * v)
		}
	}
	return math.Sqrt(s)
}

// MaxAbs returns the largest absolute element value.
func (m *Dense) MaxAbs() float64 {
	var mx float64
	for j := 0; j < m.Cols; j++ {
		for _, v := range m.Col(j) {
			if a := math.Abs(v); a > mx {
				mx = a
			}
		}
	}
	return mx
}

func (m *Dense) String() string {
	return fmt.Sprintf("Dense{%dx%d, ld=%d}", m.Rows, m.Cols, m.Stride)
}
