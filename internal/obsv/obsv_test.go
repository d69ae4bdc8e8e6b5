package obsv

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"schemble/internal/ensemble"
	"schemble/internal/mathx"
	"schemble/internal/metrics"
	"schemble/internal/rng"
)

func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram(time.Millisecond, 10, 3)
	// Upper bounds are inclusive; the value just above a bound lands in the
	// next bucket, and anything past the last bound overflows.
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{-time.Second, 0}, // clamped
		{time.Millisecond, 0},
		{time.Millisecond + 1, 1},
		{10 * time.Millisecond, 1},
		{100 * time.Millisecond, 2},
		{100*time.Millisecond + 1, 3}, // overflow
		{time.Hour, 3},
	}
	for _, tc := range cases {
		h.Observe(tc.d)
	}
	s := h.Snapshot()
	want := []uint64{3, 2, 1, 2}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != uint64(len(cases)) || h.Count() != s.Count {
		t.Errorf("Count = %d (live %d), want %d", s.Count, h.Count(), len(cases))
	}
	if s.Min != 0 {
		t.Errorf("Min = %v, want 0 (a negative sample counts as 0)", s.Min)
	}
}

func TestHistogramDefaultGeometry(t *testing.T) {
	h := NewObserver(Config{TraceBuffer: 1}).lat[OutcomeServed]
	if len(h.bounds) != defaultHistBuckets {
		t.Fatalf("bounds = %d, want %d", len(h.bounds), defaultHistBuckets)
	}
	if h.bounds[0] != float64(defaultHistMin) {
		t.Errorf("first bound = %v, want %v", h.bounds[0], defaultHistMin)
	}
	// Log-spaced: each bound 1.5x the previous, reaching past 100s.
	for i := 1; i < len(h.bounds); i++ {
		ratio := h.bounds[i] / h.bounds[i-1]
		if math.Abs(ratio-defaultHistGrowth) > 1e-9 {
			t.Fatalf("bound %d ratio = %v", i, ratio)
		}
	}
	if last := h.bounds[len(h.bounds)-1]; last < float64(100*time.Second) {
		t.Errorf("last bound %v does not cover realistic latencies", time.Duration(last))
	}
}

// TestHistogramQuantileVsPercentile checks quantile estimates against the
// exact mathx.Percentile on the same data. Histogram resolution is one
// bucket, and buckets grow 1.5x, so the estimate must be within a factor
// of 1.5 of the exact value (plus interpolation slack at the low end).
func TestHistogramQuantileVsPercentile(t *testing.T) {
	src := rng.New(42)
	h := NewHistogram(defaultHistMin, defaultHistGrowth, defaultHistBuckets)
	var xs []float64
	for i := 0; i < 5000; i++ {
		// Log-uniform latencies from ~200µs to ~2s, the serving range.
		d := time.Duration(float64(200*time.Microsecond) * math.Exp(src.Float64()*math.Log(1e4)))
		h.Observe(d)
		xs = append(xs, float64(d))
	}
	s := h.Snapshot()
	for _, q := range []float64{0.5, 0.95, 0.99} {
		got := float64(s.Quantile(q))
		want := mathx.Percentile(xs, q*100)
		if got < want/defaultHistGrowth || got > want*defaultHistGrowth {
			t.Errorf("Quantile(%v) = %v, exact %v — off by more than one bucket",
				q, time.Duration(got), time.Duration(want))
		}
	}
	if s.Quantile(0) <= 0 || s.Quantile(1) < s.Quantile(0.5) {
		t.Errorf("degenerate quantiles: q0=%v q50=%v q100=%v",
			s.Quantile(0), s.Quantile(0.5), s.Quantile(1))
	}
}

// TestHistogramFirstBucketQuantile pins the lower end of bucket 0: the
// smallest observation, not 0. A count histogram whose first bound is one
// event reads one event for turns that each handled one, and a bucket-0
// quantile interpolates from the smallest sample to the bound.
func TestHistogramFirstBucketQuantile(t *testing.T) {
	turns := NewHistogram(time.Second, 2, 12)
	for i := 0; i < 5; i++ {
		turns.Observe(time.Second)
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := turns.Snapshot().Quantile(q); got != time.Second {
			t.Errorf("one-event turns: Quantile(%v) = %v, want 1 event", q, got)
		}
		if got := turns.Quantile(q); got != time.Second {
			t.Errorf("one-event turns: live Quantile(%v) = %v, want 1 event", q, got)
		}
	}
	h := NewHistogram(10*time.Microsecond, 10, 3)
	h.Observe(6 * time.Microsecond)
	h.Observe(8 * time.Microsecond)
	// Rank 1 of the two in bucket 0: halfway from 6µs to 10µs.
	if got := h.Snapshot().Quantile(0.5); got != 8*time.Microsecond {
		t.Errorf("Quantile(0.5) = %v, want 8µs", got)
	}
	if got := h.Snapshot().Min; got != 6*time.Microsecond {
		t.Errorf("Min = %v, want 6µs", got)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(defaultHistMin, defaultHistGrowth, defaultHistBuckets)
	s := h.Snapshot()
	if s.Count != 0 || s.Quantile(0.5) != 0 || s.Mean() != 0 || s.Min != 0 || h.Quantile(0.5) != 0 {
		t.Errorf("empty snapshot: %+v", s)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram(defaultHistMin, defaultHistGrowth, defaultHistBuckets)
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(w*per+i+1) * time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	if s := h.Snapshot(); s.Count != workers*per || s.Min != time.Microsecond {
		t.Errorf("Count = %d, Min = %v, want %d and 1µs", s.Count, s.Min, workers*per)
	}
}

func TestRingOverflowDropsOldest(t *testing.T) {
	r := NewRing(8)
	for i := 1; i <= 20; i++ {
		r.Append(DecisionTrace{ID: uint64(i)})
	}
	if r.Len() != 8 {
		t.Fatalf("Len = %d, want 8", r.Len())
	}
	total, dropped := r.Counters()
	if total != 20 || dropped != 12 {
		t.Fatalf("counters = %d/%d, want 20/12", total, dropped)
	}
	// The ring keeps the 13..20 suffix in chronological order.
	last := r.Last(8)
	for i, tr := range last {
		if tr.ID != uint64(13+i) {
			t.Errorf("Last[%d].ID = %d, want %d", i, tr.ID, 13+i)
		}
	}
	// Partial reads return the newest traces.
	if got := r.Last(3); len(got) != 3 || got[0].ID != 18 || got[2].ID != 20 {
		t.Errorf("Last(3) = %+v", got)
	}
	// Asking for more than buffered returns what exists.
	if got := r.Last(100); len(got) != 8 {
		t.Errorf("Last(100) returned %d traces", len(got))
	}
	if got := r.Last(0); got != nil {
		t.Errorf("Last(0) = %v", got)
	}
}

func TestRingUnwrapped(t *testing.T) {
	r := NewRing(8)
	for i := 1; i <= 5; i++ {
		r.Append(DecisionTrace{ID: uint64(i)})
	}
	total, dropped := r.Counters()
	if total != 5 || dropped != 0 {
		t.Fatalf("counters = %d/%d", total, dropped)
	}
	if got := r.Last(3); got[0].ID != 3 || got[2].ID != 5 {
		t.Errorf("Last(3) = %+v", got)
	}
}

func TestRingZeroCapacity(t *testing.T) {
	r := NewRing(0)
	r.Append(DecisionTrace{ID: 1})
	total, dropped := r.Counters()
	if total != 1 || dropped != 1 || r.Len() != 0 {
		t.Errorf("zero-cap ring: total=%d dropped=%d len=%d", total, dropped, r.Len())
	}
}

func TestObserverDisabled(t *testing.T) {
	if (Config{}).Enabled() {
		t.Error("zero config reports enabled")
	}
	o := NewObserver(Config{})
	if o != nil {
		t.Fatal("disabled config built an observer")
	}
	// Nil receiver is a safe no-op everywhere.
	o.Done(DecisionTrace{})
	if o.Last(5) != nil {
		t.Error("nil Last != nil")
	}
	if s := o.Snapshot(); s.TracesTotal != 0 || s.Latency != nil {
		t.Errorf("nil Snapshot = %+v", s)
	}
}

func TestObserverRecordsByOutcome(t *testing.T) {
	var sunk []DecisionTrace
	o := NewObserver(Config{TraceBuffer: 4, Sink: func(tr DecisionTrace) { sunk = append(sunk, tr) }})
	o.Done(DecisionTrace{ID: 1, Outcome: OutcomeServed, Latency: 10 * time.Millisecond})
	o.Done(DecisionTrace{ID: 2, Outcome: OutcomeDegraded, Latency: 20 * time.Millisecond})
	o.Done(DecisionTrace{ID: 3, Outcome: OutcomeMissed, Latency: 30 * time.Millisecond})
	o.Done(DecisionTrace{ID: 4, Outcome: OutcomeRejected, Latency: time.Millisecond})
	s := o.Snapshot()
	if s.TracesTotal != 4 || s.TracesDropped != 0 {
		t.Fatalf("traces = %d/%d", s.TracesTotal, s.TracesDropped)
	}
	//schemble:outcome-ok deliberately the three latency-tracked outcomes; the rejected case is asserted absent just below
	for _, outcome := range []string{OutcomeServed, OutcomeDegraded, OutcomeMissed} {
		if s.Latency[outcome].Count != 1 {
			t.Errorf("%s histogram count = %d", outcome, s.Latency[outcome].Count)
		}
	}
	// Rejections resolve instantly and are counter-only.
	if _, ok := s.Latency[OutcomeRejected]; ok {
		t.Error("rejected outcome should not have a latency histogram")
	}
	if len(sunk) != 4 || sunk[3].ID != 4 {
		t.Errorf("sink saw %d traces", len(sunk))
	}
	if got := o.Last(2); len(got) != 2 || got[0].ID != 3 || got[1].ID != 4 {
		t.Errorf("Last(2) = %+v", got)
	}
}

func TestDecisionTraceJSONRoundTrip(t *testing.T) {
	in := DecisionTrace{
		ID: 7, SampleID: 123, CameraID: 2, Score: 0.42,
		Class: "bronze", Ladder: 1, Level: "capped", Planned: ensemble.Full(3),
		Early:  ensemble.Single(2),
		Queued: 100 * time.Millisecond, Scored: 101 * time.Millisecond,
		Committed: 102 * time.Millisecond, Resolved: 190 * time.Millisecond,
		Deadline: 300 * time.Millisecond, Latency: 90 * time.Millisecond,
		Subset:       []int{0, 2},
		Alternatives: []Alternative{{Subset: []int{0, 2}, Reward: 0.9}, {Subset: []int{1}, Reward: 0.5}},
		QueueDepths:  []int{1, 0, 3},
		BusyUntil:    []time.Duration{time.Millisecond, 0, 5 * time.Millisecond},
		Blocked:      []int{1},
		Retries:      1, Hedges: 2, Timeouts: 1,
		Outcome: OutcomeDegraded, Served: []int{0},
	}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out DecisionTrace
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", out) != fmt.Sprintf("%+v", in) {
		t.Errorf("round trip mismatch:\n in %+v\nout %+v", in, out)
	}
}

func TestDecisionTraceRecord(t *testing.T) {
	tr := DecisionTrace{
		ID: 9, SampleID: 5, Queued: 10 * time.Millisecond,
		Resolved: 60 * time.Millisecond, Deadline: 100 * time.Millisecond,
		Outcome: OutcomeDegraded, Served: []int{0, 2},
	}
	rec := tr.Record()
	if rec.QueryID != 9 || rec.SampleID != 5 || rec.Missed || !rec.Degraded {
		t.Errorf("record = %+v", rec)
	}
	if rec.Latency() != 50*time.Millisecond {
		t.Errorf("latency = %v", rec.Latency())
	}
	if got := rec.Subset.Models(); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("subset = %v", got)
	}
	rej := DecisionTrace{Outcome: OutcomeRejected}.Record()
	if !rej.Missed || !rej.Rejected || rej.Done != 0 {
		t.Errorf("rejected record = %+v", rej)
	}
	miss := DecisionTrace{Outcome: OutcomeMissed}.Record()
	if !miss.Missed || miss.Rejected {
		t.Errorf("missed record = %+v", miss)
	}
}

func TestJSONLSink(t *testing.T) {
	var buf bytes.Buffer
	sink, closeFn := NewJSONLSink(&buf)
	for i := 1; i <= 3; i++ {
		sink(DecisionTrace{
			ID: uint64(i), SampleID: i, Queued: time.Duration(i) * time.Millisecond,
			Resolved: time.Duration(i+5) * time.Millisecond,
			Deadline: 100 * time.Millisecond,
			Outcome:  OutcomeServed, Served: []int{0},
		})
	}
	dropped, err := closeFn()
	if err != nil || dropped != 0 {
		t.Fatalf("close: dropped=%d err=%v", dropped, err)
	}
	recs, err := metrics.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("read %d records", len(recs))
	}
	for i, r := range recs {
		if r.QueryID != i+1 || r.Missed {
			t.Errorf("record %d = %+v", i, r)
		}
	}
	// Sends after close are ignored, and a second close is idempotent.
	sink(DecisionTrace{ID: 99})
	if d, err := closeFn(); err != nil || d != 0 {
		t.Errorf("second close: %d %v", d, err)
	}
}
