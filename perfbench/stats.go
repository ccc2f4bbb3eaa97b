package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported high percentile:
// fewer, and the percentile is one or two unlucky samples, not a tail.
const minBeyond = 10

// median returns the middle of xs (the mean of the two middle samples for
// an even count) and false when xs is empty.
func median(xs []float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2], true
	}
	return (s[n/2-1] + s[n/2]) / 2, true
}

// highPercentile returns the nearest-rank q-quantile of xs (0 < q < 1) and
// whether at least minBeyond samples lie beyond it. When they do not, the
// percentile is reported as missing (false), never as a number.
func highPercentile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	rank := int(math.Ceil(q * float64(n)))
	if n == 0 || rank < 1 || n-rank < minBeyond {
		return 0, false
	}
	return sortedCopy(xs)[rank-1], true
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
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is num/den, or 0 when nothing was attempted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
