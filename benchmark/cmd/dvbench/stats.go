package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// a tail figure resting on fewer slow samples than this is noise, so the
// helper refuses it rather than report a number (p99 needs 1,000).
const minBeyond = 10

// percentile returns the pct-th percentile (nearest rank) of samples,
// which it sorts in place. It refuses a percentile with fewer than
// minBeyond samples above it.
func percentile(samples []float64, pct float64) (float64, error) {
	n := len(samples)
	rank := int(math.Ceil(pct/100*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if n == 0 || n-rank < minBeyond {
		return 0, fmt.Errorf("p%g needs %d samples beyond it; %d samples give %d",
			pct, minBeyond, n, max(n-rank, 0))
	}
	sort.Float64s(samples)
	return samples[rank-1], nil
}

// tailPercentile returns the highest of p99, p98, ..., p50 that samples
// support, and which one it was; ok is false when not even the median
// has minBeyond samples beyond it.
func tailPercentile(samples []float64) (value, pct float64, ok bool) {
	for pct = 99; pct >= 50; pct-- {
		if v, err := percentile(samples, pct); err == nil {
			return v, pct, true
		}
	}
	return 0, 0, false
}

// median returns the median of xs (the mean of the middle two for an
// even count) without reordering xs; 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := len(s) / 2
	if len(s)%2 == 1 {
		return s[k]
	}
	return (s[k-1] + s[k]) / 2
}

// quartiles returns the first and third quartiles of xs with the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), the
// definition the acceptance spread check uses.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 { // CPython's loop body, n = 4 quantiles
		m := ld + 1
		j := min(max(i*m/4, 1), ld-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}
