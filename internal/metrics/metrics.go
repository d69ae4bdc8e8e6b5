// Package metrics aggregates per-query serving records into the measures
// the paper reports: accuracy (missed queries count as incorrect), deadline
// miss rate, processed accuracy, latency mean/P95/max, the
// accuracy-latency tradeoff objective c = 100*Acc - lambda*Latency, and
// per-time-segment breakdowns.
package metrics

import (
	"time"

	"schemble/internal/ensemble"
	"schemble/internal/mathx"
)

// Record is one query's serving outcome.
type Record struct {
	QueryID  int
	SampleID int
	CameraID int

	Arrival  time.Duration
	Deadline time.Duration
	// Done is the completion time; zero and Missed=true when never
	// completed.
	Done   time.Duration
	Missed bool
	// Rejected marks queries the runtime shed at admission (saturation,
	// drain, shutdown) rather than losing to the deadline; Rejected implies
	// Missed. Degraded marks queries answered in time from a partial
	// subset. Both default false for simulator records, which predate the
	// runtime taxonomy.
	Rejected bool
	Degraded bool

	// Agreement is the query's agreement with the full ensemble in [0,1]
	// (0 when missed).
	Agreement float64
	// Subset is the executed model subset (Empty when missed).
	Subset ensemble.Subset
	// Class is the query's request-class name; empty for classless runs.
	Class string
}

// Latency returns the query's response time (0 when missed).
func (r Record) Latency() time.Duration {
	if r.Missed {
		return 0
	}
	return r.Done - r.Arrival
}

// Summary aggregates records.
type Summary struct {
	N int
	// Missed counts deadline misses (excluding rejections); Rejected counts
	// admission-shed queries; Degraded counts in-time partial-subset
	// answers (also included in the completed-query aggregates).
	Missed   int
	Rejected int
	Degraded int

	Accuracy float64 // mean agreement with missed/rejected = 0
	// DMR is the deadline miss rate over non-rejected queries' outcomes:
	// Missed / N. Rejections are reported separately as RejectedRate so
	// load shedding is not misread as scheduler misses.
	DMR          float64
	RejectedRate float64
	DegradedRate float64
	Processed    float64 // mean agreement over completed queries only

	LatMean time.Duration // over completed queries
	LatP95  time.Duration
	LatMax  time.Duration

	// MeanSubsetSize is the average executed subset size over completed
	// queries (a resource-usage diagnostic).
	MeanSubsetSize float64
}

// Summarize aggregates recs into a Summary. An empty slice yields the zero
// Summary.
func Summarize(recs []Record) Summary {
	var s Summary
	s.N = len(recs)
	if s.N == 0 {
		return s
	}
	var accSum, procSum, sizeSum float64
	var lats []float64
	for _, r := range recs {
		if r.Rejected {
			s.Rejected++
			continue
		}
		if r.Missed {
			s.Missed++
			continue
		}
		if r.Degraded {
			s.Degraded++
		}
		accSum += r.Agreement
		procSum += r.Agreement
		sizeSum += float64(r.Subset.Size())
		lats = append(lats, float64(r.Latency()))
	}
	s.Accuracy = accSum / float64(s.N)
	s.DMR = float64(s.Missed) / float64(s.N)
	s.RejectedRate = float64(s.Rejected) / float64(s.N)
	s.DegradedRate = float64(s.Degraded) / float64(s.N)
	done := s.N - s.Missed - s.Rejected
	if done > 0 {
		s.Processed = procSum / float64(done)
		s.MeanSubsetSize = sizeSum / float64(done)
		s.LatMean = time.Duration(mathx.Mean(lats))
		s.LatP95 = time.Duration(mathx.Percentile(lats, 95))
		s.LatMax = time.Duration(mathx.Percentile(lats, 100))
	}
	return s
}

// Objective is the paper's weighted tradeoff c = 100*Acc - lambda*Latency
// (latency in seconds); larger is better (Fig. 11).
func Objective(acc float64, lat time.Duration, lambda float64) float64 {
	return 100*acc - lambda*lat.Seconds()
}

// Segment groups records into consecutive windows of the given width (by
// arrival time) and summarizes each. Windows with no arrivals yield zero
// summaries, so callers can plot continuous time axes.
func Segment(recs []Record, width, horizon time.Duration) []Summary {
	if width <= 0 {
		panic("metrics: non-positive segment width")
	}
	// ceil(horizon/width) windows cover [0, horizon); an extra trailing
	// window only exists when the horizon spills past the last full one.
	n := int(horizon / width)
	if n == 0 || horizon%width != 0 {
		n++
	}
	buckets := make([][]Record, n)
	for _, r := range recs {
		b := int(r.Arrival / width)
		if b >= n {
			b = n - 1
		}
		buckets[b] = append(buckets[b], r)
	}
	out := make([]Summary, n)
	for i, b := range buckets {
		out[i] = Summarize(b)
	}
	return out
}

// SubsetHistogram counts how often each subset was executed.
func SubsetHistogram(recs []Record) map[ensemble.Subset]int {
	h := make(map[ensemble.Subset]int)
	for _, r := range recs {
		if !r.Missed {
			h[r.Subset]++
		}
	}
	return h
}
