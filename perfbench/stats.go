package main

import (
	"math"
	"sort"
)

// tailLadder lists the tail percentiles the benchmark may report as p99,
// highest first.
var tailLadder = []float64{99, 95, 90, 75, 50}

// tailPercentile returns the highest percentile of tailLadder that has at
// least ten samples beyond it in a sample of n; 50 when none has.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if supported(p, n) {
			return p
		}
	}
	return 50
}

// supported reports whether a sample of n leaves at least ten samples
// beyond its p-th percentile.
func supported(p float64, n int) bool { return n-rank(p, n) >= 10 }

// rank is the 1-based nearest rank of the p-th percentile of n samples.
func rank(p float64, n int) int {
	return min(max(int(math.Ceil(p*float64(n)/100)), 1), n)
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of xs,
// which it sorts in place; NaN for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	return xs[rank(p, len(xs))-1]
}

// median is percentile(xs, 50).
func median(xs []float64) float64 { return percentile(xs, 50) }
