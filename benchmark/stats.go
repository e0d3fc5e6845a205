package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p < 100) of sorted by the
// nearest-rank rule: the smallest value with at least p% of the samples at
// or below it. NaN for an empty sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[max(rankOf(p, len(sorted)), 1)-1]
}

// rankOf is the 1-based nearest rank of the p-th percentile among n samples.
// The small allowance keeps 99.9% of 10000 at 9990, not 9991 by rounding.
func rankOf(p float64, n int) int {
	return int(math.Ceil(p/100*float64(n) - 1e-9))
}

// tailLevels are the percentiles the tail rule chooses from, ascending.
var tailLevels = []float64{50, 90, 95, 99, 99.9, 99.99}

// highestTail returns the highest of tailLevels that still has at least ten
// samples beyond it — the highest percentile a sample of n supports — and 0
// when even the median does not.
func highestTail(n int) float64 {
	best := 0.0
	for _, p := range tailLevels {
		if n-rankOf(p, n) >= 10 {
			best = p
		}
	}
	return best
}

// sortedCopy returns an ascending copy of v.
func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of v (mean of the two middle values for an
// even count); NaN when empty.
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := sortedCopy(v)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile of v by the exclusive
// method Python's statistics.quantiles(v, n=4) uses, so the spreads printed
// here are the ones the benchmark contract is judged by. With fewer than two
// values both quartiles are the single value.
func quartiles(v []float64) (q1, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		// Position i*(n+1)/4 on a 1-based scale; the interval is clamped to
		// the sample and the weight is not, exactly as Python does.
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median: the
// repeatability figure every bound is compared against.
func spread(v []float64) float64 {
	m := median(v)
	if len(v) < 2 || m == 0 || math.IsNaN(m) {
		return 0
	}
	q1, q3 := quartiles(v)
	return math.Abs((q3 - q1) / m)
}

// mean returns the arithmetic mean of v (0 when empty).
func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}
