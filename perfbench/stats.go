package main

import (
	"math"
	"sort"
)

// tailMin is how many samples must lie beyond a percentile before the
// benchmark treats it as a tail estimate rather than a maximum.
const tailMin = 10

// rank returns the 1-based nearest-rank position of the p-th percentile
// (0 < p ≤ 100) in a sample of n: the smallest rank whose share of the
// sample is at least p percent.
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank p-th percentile of xs (any order)
// and how many samples lie beyond it. An empty sample gives 0, 0.
func percentile(xs []float64, p float64) (value float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	r := rank(len(s), p)
	return s[r-1], len(s) - r
}

// tailReportable reports whether the p-th percentile of n samples has at
// least tailMin samples beyond it.
func tailReportable(n int, p float64) bool {
	return n > 0 && n-rank(n, p) >= tailMin
}

// median is the usual median (mean of the two middle values for an even
// count); set-up times are reported as the median of several set-ups.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}
