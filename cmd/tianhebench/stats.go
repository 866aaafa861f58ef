package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantileSorted returns the p-quantile (0 < p < 1) of an ascending sample by
// the exclusive method Python's statistics.quantiles uses: position p*(n+1),
// linearly interpolated and clamped to the extremes. Matching that method
// matters because the acceptance driver computes its quartile spread with it.
func quantileSorted(s []float64, p float64) float64 {
	n := len(s)
	switch n {
	case 0:
		return math.NaN()
	case 1:
		return s[0]
	}
	pos := p * float64(n+1)
	i := int(math.Floor(pos))
	if i < 1 {
		return s[0]
	}
	if i >= n {
		return s[n-1]
	}
	frac := pos - float64(i)
	return s[i-1] + frac*(s[i]-s[i-1])
}

func median(xs []float64) float64 { return quantileSorted(sorted(xs), 0.5) }

// quartiles returns the first quartile, median and third quartile.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := sorted(xs)
	return quantileSorted(s, 0.25), quantileSorted(s, 0.5), quantileSorted(s, 0.75)
}

// spread is the interquartile distance as a share of the median — the
// noise figure a bound is compared with.
func spread(xs []float64) float64 {
	q1, med, q3 := quartiles(xs)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

// tail returns the highest percentile of xs that still has at least ten
// samples beyond it, and the value there. With ten samples or fewer no
// percentile qualifies and the median is returned as p50.
func tail(xs []float64) (pct, value float64) {
	s := sorted(xs)
	n := len(s)
	if n <= 10 {
		return 50, median(xs)
	}
	rank := n - 10 // samples at or below the percentile
	return 100 * float64(rank) / float64(n), s[rank-1]
}
