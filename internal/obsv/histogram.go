// Package obsv is the request-level observability layer of the serving
// runtime: the repository's one latency histogram (log-spaced buckets,
// quantile queries, snapshots) and per-request decision traces collected
// in a bounded drop-oldest ring buffer. The serving runtime records into
// an Observer on its hot path; HTTP handlers and sinks read snapshots, and
// the online-adaptation layer plans on live quantiles. Everything is
// allocation-free on the record path and safe for concurrent use.
package obsv

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// Histogram is a fixed-bucket latency histogram over log-spaced bounds.
// Observe is lock-free (two atomic adds, plus a compare-and-swap on a new
// minimum), so it can sit on the serving runtime's hot path; readers take
// Snapshots, or read Count and Quantile in place without allocating.
// Buckets are immutable after construction.
type Histogram struct {
	// bounds[i] is bucket i's inclusive upper bound in nanoseconds, kept
	// as the float64 min·growth^i rather than rounded to a duration, so
	// interpolation inside a bucket reads the same value whatever the
	// geometry. counts has one extra overflow bucket for observations
	// above the last bound.
	bounds []float64
	counts []atomic.Uint64
	sum    atomic.Int64 // total observed nanoseconds
	// low is the smallest observation, math.MaxInt64 while empty: the
	// lower end of bucket 0, which has no bound below it.
	low atomic.Int64
}

// NewHistogram builds a histogram over buckets log-spaced upper bounds:
// bound i is min·growth^i nanoseconds. It panics on a geometry that is
// not strictly ascending, which only a programming error produces.
func NewHistogram(min time.Duration, growth float64, buckets int) *Histogram {
	if min <= 0 || !(growth > 1) || buckets < 1 {
		panic("obsv: histogram needs min > 0, growth > 1 and at least one bucket")
	}
	h := &Histogram{
		bounds: make([]float64, buckets),
		counts: make([]atomic.Uint64, buckets+1),
	}
	for i := range h.bounds {
		h.bounds[i] = float64(min) * math.Pow(growth, float64(i))
	}
	h.low.Store(math.MaxInt64)
	return h
}

// Observe records one latency sample; a negative one counts as 0. An
// observation goes in the first bucket whose bound is at least it
// (Prometheus' le), or the overflow bucket.
func (h *Histogram) Observe(d time.Duration) {
	d = max(d, 0)
	// The minimum is stored before the count, so a reader that loads the
	// counts first and the minimum after sees every counted value in it.
	for low := h.low.Load(); int64(d) < low; low = h.low.Load() {
		if h.low.CompareAndSwap(low, int64(d)) {
			break
		}
	}
	v := float64(d)
	h.counts[sort.Search(len(h.bounds), func(i int) bool { return h.bounds[i] >= v })].Add(1)
	h.sum.Add(int64(d))
}

// Count reports how many samples h holds. Never allocates.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Quantile reads the q-quantile of what h holds in place, by the rule
// HistogramSnapshot.Quantile states. Never allocates.
func (h *Histogram) Quantile(q float64) time.Duration {
	n := h.Count()
	return quantile(q, h.bounds, time.Duration(h.low.Load()), n, func(i int) uint64 { return h.counts[i].Load() })
}

// Snapshot captures the histogram's current state. Count is derived from
// the bucket counts so the snapshot is internally consistent (the sum of
// Counts always equals Count) even while writers race the read.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds, // immutable, safe to share
		Counts: make([]uint64, len(h.counts)),
		Sum:    time.Duration(h.sum.Load()),
	}
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	if s.Count > 0 {
		s.Min = time.Duration(h.low.Load())
	}
	return s
}

// HistogramSnapshot is a point-in-time copy of a Histogram: per-bucket
// counts over shared immutable bounds, plus the derived total count, the
// sum of observed durations and the smallest one.
type HistogramSnapshot struct {
	Bounds []float64 // upper bounds in nanoseconds, min·growth^i
	Counts []uint64  // len(Bounds)+1: the last entry is the overflow bucket
	Count  uint64
	Sum    time.Duration
	Min    time.Duration // 0 when empty
}

// Mean returns the mean observed latency (0 when empty).
func (s HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / time.Duration(s.Count)
}

// Quantile estimates the q-quantile (q clamped to [0,1]) as the sample of
// rank ⌈q·n⌉, at least 1, linearly interpolated by rank inside the bucket
// that holds it: bucket 0 spans the smallest observation to its bound,
// bucket i the bounds i-1 to i, and the overflow bucket reads the last
// bound. It is monotone in q and lies in the same bucket as the true
// order statistic, so within a factor growth of it below the last bound.
// It differs from Prometheus' histogram_quantile only inside one bucket:
// that interpolates the continuous rank q·n, from 0 in bucket 0. Returns
// 0 when empty.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	return quantile(q, s.Bounds, s.Min, s.Count, func(i int) uint64 { return s.Counts[i] })
}

// quantile is Quantile over n samples in len(bounds)+1 buckets, count(i)
// holding bucket i's and low the smallest.
func quantile(q float64, bounds []float64, low time.Duration, n uint64, count func(int) uint64) time.Duration {
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := min(max(uint64(math.Ceil(q*float64(n))), 1), n)
	last := len(bounds)
	var cum uint64
	for i := 0; i < last; i++ {
		c := count(i)
		if cum+c < rank {
			cum += c
			continue
		}
		lo := float64(low)
		if i > 0 {
			lo = bounds[i-1]
		}
		hi := bounds[i]
		return time.Duration(lo + (hi-lo)*(float64(rank-cum)/float64(c)))
	}
	return time.Duration(bounds[last-1])
}
