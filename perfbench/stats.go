package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile: a
// percentile with fewer samples past it is one or two outliers, not a tail.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile of sorted (0 < q ≤ 1) and
// how many samples lie strictly after its rank.
func quantile(sorted []float64, q float64) (value float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), 0
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx], n - idx - 1
}

// tail is the highest percentile with at least minBeyond samples beyond it.
type tail struct {
	Pct   float64 // percentile, e.g. 99.5
	Value float64
	N     int // sample count
}

// highestTail applies the reporting rule: with n samples sorted ascending,
// the value at index n-minBeyond-1 has exactly minBeyond samples above it,
// and its percentile is (n-minBeyond)/n. ok is false below minBeyond+1
// samples, where no percentile has a tail behind it.
func highestTail(samples []float64) (t tail, ok bool) {
	n := len(samples)
	if n <= minBeyond {
		return tail{N: n}, false
	}
	s := sortedCopy(samples)
	return tail{Pct: 100 * float64(n-minBeyond) / float64(n), Value: s[n-minBeyond-1], N: n}, true
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// mean of v (NaN when empty).
func mean(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// median of v (NaN when empty); the mean of the middle pair for even n.
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := sortedCopy(v)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// relSpread is (max-min)/median of v, the batch-to-batch spread reported
// for figures that are not pinned.
func relSpread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := sortedCopy(v)
	m := median(s)
	if m == 0 {
		return 0
	}
	return (s[len(s)-1] - s[0]) / m
}
