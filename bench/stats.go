package main

import (
	"math"
	"sort"
)

// percentileLadder are the percentiles the benchmark reports, lowest
// first.
var percentileLadder = []float64{50, 90, 95, 99, 99.9}

// minBeyond is how many samples must lie beyond a percentile before it
// is worth reporting (choosing-metrics §1).
const minBeyond = 10

// rank is the 1-based nearest-rank position of the p-th percentile
// among n samples. The epsilon keeps 99.9 % of 10 000 at 9 990, which
// floating point would otherwise push to 9 991.
func rank(n int, p float64) int {
	return int(math.Ceil(p/100*float64(n) - 1e-9))
}

// samplesBeyond is how many of n samples rank above the p-th
// percentile.
func samplesBeyond(n int, p float64) int { return n - rank(n, p) }

// highestPercentile picks the highest ladder percentile with at least
// minBeyond samples beyond it; the median when the sample supports
// nothing higher.
func highestPercentile(n int) float64 {
	best := percentileLadder[0]
	for _, p := range percentileLadder {
		if samplesBeyond(n, p) >= minBeyond {
			best = p
		}
	}
	return best
}

// percentile is the nearest-rank p-th percentile of sorted; 0 for an
// empty sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[min(max(rank(len(sorted), p), 1), len(sorted))-1]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles reproduces Python's statistics.quantiles(xs, n=4), the
// rule the acceptance check uses. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}
