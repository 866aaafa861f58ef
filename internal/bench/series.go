// Package bench provides the small harness utilities shared by the
// experiment binaries and the testing.B benchmarks: named data series, table
// rendering, and GFLOPS accounting. Each figure of the paper is regenerated
// as a set of Series printed in a fixed column layout so runs are diffable.
package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

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

// Last returns the final point of the series; it panics on an empty series.
func (s *Series) Last() Point {
	if len(s.Points) == 0 {
		panic("bench: Last on empty series")
	}
	return s.Points[len(s.Points)-1]
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

// Table renders series side by side: one row per distinct x, one column per
// series, in the order given. Missing cells print as "-".
func Table(w io.Writer, xLabel, yUnit string, series ...*Series) {
	xsSet := map[float64]bool{}
	for _, s := range series {
		for _, p := range s.Points {
			xsSet[p.X] = true
		}
	}
	xs := make([]float64, 0, len(xsSet))
	for x := range xsSet {
		xs = append(xs, x)
	}
	sort.Float64s(xs)

	header := fmt.Sprintf("%-12s", xLabel)
	for _, s := range series {
		header += fmt.Sprintf(" %16s", s.Name)
	}
	fmt.Fprintln(w, header)
	fmt.Fprintln(w, strings.Repeat("-", len(header)))
	for _, x := range xs {
		row := fmt.Sprintf("%-12.0f", x)
		for _, s := range series {
			if y, ok := s.Y(x); ok {
				row += fmt.Sprintf(" %16.2f", y)
			} else {
				row += fmt.Sprintf(" %16s", "-")
			}
		}
		fmt.Fprintln(w, row)
	}
	if yUnit != "" {
		fmt.Fprintf(w, "(values in %s)\n", yUnit)
	}
}
