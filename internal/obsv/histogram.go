// Package obsv is the request-level observability layer of the serving
// runtime: a lock-cheap fixed-bucket latency histogram (log-spaced
// buckets, percentile queries, mergeable snapshots) and per-request
// decision traces collected in a bounded drop-oldest ring buffer. The
// serving runtime records into an Observer on its hot path; HTTP handlers
// and sinks read snapshots. Everything is allocation-free on the record
// path and safe for concurrent use.
package obsv

import (
	"sort"
	"sync/atomic"
	"time"
)

// Default histogram geometry: log-spaced buckets from 100µs growing by
// 1.5x per bucket. 36 buckets reach ~145s before the overflow bucket, so
// both compressed-timescale tests and realistic serving latencies land in
// interpolatable buckets.
const (
	defaultHistBuckets = 36
	defaultHistGrowth  = 1.5
)

var defaultHistMin = 100 * time.Microsecond

// Histogram is a fixed-bucket latency histogram. Observe is lock-free
// (two atomic adds), so it can sit on the serving runtime's hot path;
// readers take consistent-enough Snapshots for monitoring. Buckets are
// immutable after construction.
type Histogram struct {
	// bounds[i] is bucket i's inclusive upper bound; counts has one extra
	// overflow bucket for observations above the last bound.
	bounds []time.Duration
	counts []atomic.Uint64
	sum    atomic.Int64 // total observed nanoseconds
}

// NewHistogram builds a histogram with the default log-spaced buckets.
func NewHistogram() *Histogram {
	return NewLogHistogram(defaultHistMin, defaultHistGrowth, defaultHistBuckets)
}

// NewLogHistogram builds a histogram over buckets log-spaced bounds: the
// first is min and each next is growth times the one before.
func NewLogHistogram(min time.Duration, growth float64, buckets int) *Histogram {
	bounds := make([]time.Duration, buckets)
	b := float64(min)
	for i := range bounds {
		bounds[i] = time.Duration(b)
		b *= growth
	}
	return NewHistogramBounds(bounds)
}

// NewHistogramBounds builds a histogram over explicit ascending bucket
// upper bounds (plus an implicit overflow bucket).
func NewHistogramBounds(bounds []time.Duration) *Histogram {
	if len(bounds) == 0 {
		panic("obsv: histogram needs at least one bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obsv: histogram bounds must be strictly ascending")
		}
	}
	return &Histogram{
		bounds: append([]time.Duration(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// bucket returns the index of the bucket d falls into: the first bucket
// whose upper bound is >= d, or the overflow bucket.
func (h *Histogram) bucket(d time.Duration) int {
	return sort.Search(len(h.bounds), func(i int) bool { return h.bounds[i] >= d })
}

// Observe records one latency sample.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[h.bucket(d)].Add(1)
	h.sum.Add(int64(d))
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
	return s
}

// HistogramSnapshot is a point-in-time copy of a Histogram: per-bucket
// counts over shared immutable bounds, plus the derived total count and
// the sum of observed durations.
type HistogramSnapshot struct {
	Bounds []time.Duration
	Counts []uint64 // len(Bounds)+1: the last entry is the overflow bucket
	Count  uint64
	Sum    time.Duration
}

// Merge returns a new snapshot combining s and o bucket-wise. Both must
// share the same bucket geometry (true for all default histograms).
func (s HistogramSnapshot) Merge(o HistogramSnapshot) HistogramSnapshot {
	if len(s.Bounds) != len(o.Bounds) {
		panic("obsv: merging histograms with different bucket geometry")
	}
	for i := range s.Bounds {
		if s.Bounds[i] != o.Bounds[i] {
			panic("obsv: merging histograms with different bucket geometry")
		}
	}
	out := HistogramSnapshot{
		Bounds: s.Bounds,
		Counts: make([]uint64, len(s.Counts)),
		Count:  s.Count + o.Count,
		Sum:    s.Sum + o.Sum,
	}
	for i := range s.Counts {
		out.Counts[i] = s.Counts[i] + o.Counts[i]
	}
	return out
}

// Mean returns the mean observed latency (0 when empty).
func (s HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / time.Duration(s.Count)
}

// Quantile estimates the q-th quantile (q in [0,1]) by linear
// interpolation inside the bucket the target rank falls into; resolution
// is therefore one bucket width. Returns 0 for an empty snapshot. Samples
// in the overflow bucket report the last finite bound.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(s.Count)
	if target < 1 {
		target = 1
	}
	var cum float64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next < target {
			cum = next
			continue
		}
		if i == len(s.Counts)-1 {
			// Overflow bucket: no finite upper bound to interpolate to.
			return s.Bounds[len(s.Bounds)-1]
		}
		lo := time.Duration(0)
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		hi := s.Bounds[i]
		frac := (target - cum) / float64(c)
		return lo + time.Duration(frac*float64(hi-lo))
	}
	return s.Bounds[len(s.Bounds)-1]
}
