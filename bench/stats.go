package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of an
// ascending slice: the smallest value with at least p of the samples at or
// below it. Empty input yields 0.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= n {
		rank = n - 1
	}
	return sorted[rank]
}

// tailSupport is how many samples must lie beyond a percentile before the
// harness calls it supported.
const tailSupport = 10

// beyond counts the samples strictly past the nearest-rank p-quantile of n
// samples.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p*float64(n)))
}

// supportedTail returns the highest of the candidate percentiles that has
// at least tailSupport samples beyond it, falling back to the median.
func supportedTail(n int) float64 {
	best := 0.5
	for _, p := range []float64{0.9, 0.95, 0.99, 0.999} {
		if beyond(n, p) >= tailSupport {
			best = p
		}
	}
	return best
}

func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func median(v []float64) float64 {
	s := sortedCopy(v)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// relDiff is the distance between the extremes of v as a share of their
// mean — the "differs by" figure -repeat compares against a bound.
func relDiff(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	lo, hi := v[0], v[0]
	for _, x := range v {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	mid := (lo + hi) / 2
	if mid <= 0 {
		return 0
	}
	return (hi - lo) / mid
}
