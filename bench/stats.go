package main

import (
	"math"
	"sort"
)

// median returns the median of vs (the mean of the two middle values for
// an even count), or 0 for an empty slice. vs is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := sortedCopy(vs)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// quartiles returns the first and third quartile of vs by the exclusive
// method — the cut points Python's statistics.quantiles(vs, n=4) gives,
// which is what the driver's spread check uses. Fewer than two values
// yield the single value (or 0) for both.
func quartiles(vs []float64) (q1, q3 float64) {
	if len(vs) < 2 {
		if len(vs) == 1 {
			return vs[0], vs[0]
		}
		return 0, 0
	}
	s := sortedCopy(vs)
	at := func(p float64) float64 {
		pos := p * float64(len(s)+1) // 1-based rank
		lo := int(math.Floor(pos))
		if lo < 1 {
			return s[0]
		}
		if lo >= len(s) {
			return s[len(s)-1]
		}
		frac := pos - float64(lo)
		return s[lo-1] + frac*(s[lo]-s[lo-1])
	}
	return at(0.25), at(0.75)
}

// spread is the interquartile distance of vs as a share of its median (0
// when the median is 0): the run-to-run noise figure every bound in
// BENCHMARK.json is sized against.
func spread(vs []float64) float64 {
	m := median(vs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(vs)
	return (q3 - q1) / math.Abs(m)
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted, or 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

func sortedCopy(vs []float64) []float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s
}
