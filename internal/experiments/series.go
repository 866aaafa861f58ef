package experiments

// Point is one (x, y) sample of a series.
type Point struct {
	X float64
	Y float64
}

// Series is a named sequence of points, e.g. one curve of a figure.
type Series struct {
	Name   string
	Points []Point
}

// Add appends a sample.
func (s *Series) Add(x, y float64) {
	s.Points = append(s.Points, Point{X: x, Y: y})
}

// Y returns the y value at the given x, or ok=false if absent.
func (s *Series) Y(x float64) (float64, bool) {
	for _, p := range s.Points {
		//lint:ignore floateq X values are discrete problem sizes used as exact keys, never computed
		if p.X == x {
			return p.Y, true
		}
	}
	return 0, false
}

// GainOver returns the mean relative improvement of s over base across the
// x values where both are defined and keep(x) holds (nil keep means all).
func (s *Series) GainOver(base *Series, keep func(x float64) bool) float64 {
	var sum float64
	var n int
	for _, p := range s.Points {
		if keep != nil && !keep(p.X) {
			continue
		}
		if b, ok := base.Y(p.X); ok && b > 0 {
			sum += p.Y/b - 1
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// newSeries pairs the x values of a sweep with the ys sweep.Map returned
// for them, in point order. Callers pass their callbacks to sweep.Map
// directly, so tianhelint's detpure check still sees every one.
func newSeries(name string, xs, ys []float64) *Series {
	s := &Series{Name: name}
	for i, x := range xs {
		s.Add(x, ys[i])
	}
	return s
}
