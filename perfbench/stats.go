package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before it
// is reported: fewer, and the figure is one or two outliers.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of samples (0 < q ≤ 1):
// the smallest sample v with at least ⌈q·n⌉ samples ≤ v. It is computed
// from the raw samples, never from buckets, so it cannot exceed the
// maximum. samples is sorted in place.
func percentile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	sort.Float64s(samples)
	rank := int(math.Ceil(q * float64(len(samples))))
	rank = min(max(rank, 1), len(samples))
	return samples[rank-1]
}

// median is the middle of samples (the mean of the two middle values
// for an even count); samples is sorted in place.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return math.NaN()
	}
	sort.Float64s(samples)
	if n%2 == 1 {
		return samples[n/2]
	}
	return (samples[n/2-1] + samples[n/2]) / 2
}

// tailReportable reports whether the nearest-rank q-quantile of n
// samples has at least minBeyond samples above its rank.
func tailReportable(n int, q float64) bool {
	return n-int(math.Ceil(q*float64(n))) >= minBeyond
}
