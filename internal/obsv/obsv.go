package obsv

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Config opts a serving runtime into request-level observability. The
// zero value disables every hook: no traces, no histograms, and a nil
// Observer, leaving the runtime's hot path untouched.
type Config struct {
	// TraceBuffer is the decision-trace ring capacity. > 0 enables
	// observability; each resolved request appends one trace, and once the
	// ring is full the oldest trace is dropped.
	TraceBuffer int
	// Sink, when non-nil, additionally receives every finalized trace. It
	// is called synchronously by the goroutine that resolves the request —
	// the coordinator, or the submitting one for a request rejected or
	// served from the cache before it reached the coordinator — and must not
	// block; NewJSONLSink returns a buffered asynchronous file sink.
	Sink func(DecisionTrace)
}

// Enabled reports whether the config turns observability on.
func (c Config) Enabled() bool { return c.TraceBuffer > 0 || c.Sink != nil }

// Observer collects decision traces and per-outcome latency histograms
// for one serving runtime. All methods are safe for concurrent use; a nil
// Observer is a valid no-op receiver for Done, so the runtime can call it
// unconditionally.
type Observer struct {
	ring *Ring
	sink func(DecisionTrace)
	// lat[outcome] is the end-to-end latency histogram for that outcome
	// (virtual time, like Result.Latency). Rejections resolve in
	// microseconds and are tracked only as counters, not latencies.
	lat map[string]*Histogram
}

// The observer's latency histograms: log-spaced buckets from 100µs growing
// by 1.5x per bucket. 36 buckets reach ~145s before the overflow bucket, so
// both compressed-timescale tests and realistic serving latencies land in
// interpolatable buckets.
const (
	defaultHistMin     = 100 * time.Microsecond
	defaultHistGrowth  = 1.5
	defaultHistBuckets = 36
)

// NewObserver builds an observer, or returns nil when cfg is disabled.
func NewObserver(cfg Config) *Observer {
	if !cfg.Enabled() {
		return nil
	}
	return &Observer{
		ring: NewRing(cfg.TraceBuffer),
		sink: cfg.Sink,
		//schemble:outcome-ok rejections resolve in microseconds and are tracked as counters only, never as latencies
		lat: map[string]*Histogram{
			OutcomeServed:   NewHistogram(defaultHistMin, defaultHistGrowth, defaultHistBuckets),
			OutcomeDegraded: NewHistogram(defaultHistMin, defaultHistGrowth, defaultHistBuckets),
			OutcomeMissed:   NewHistogram(defaultHistMin, defaultHistGrowth, defaultHistBuckets),
		},
	}
}

// Done records one finalized trace: ring append, latency observation, and
// sink delivery. Safe on a nil receiver.
func (o *Observer) Done(t DecisionTrace) {
	if o == nil {
		return
	}
	o.ring.Append(t)
	if h := o.lat[t.Outcome]; h != nil {
		h.Observe(t.Latency)
	}
	if o.sink != nil {
		o.sink(t)
	}
}

// Last returns up to n of the most recent decision traces in
// chronological order. Safe on a nil receiver (returns nil).
func (o *Observer) Last(n int) []DecisionTrace {
	if o == nil {
		return nil
	}
	return o.ring.Last(n)
}

// Snapshot is a point-in-time view of the observer for metrics export.
type Snapshot struct {
	// TracesTotal counts every trace ever recorded; TracesDropped counts
	// those no longer in the ring (overwritten). Both are exact.
	TracesTotal   uint64
	TracesDropped uint64
	// Latency maps outcome label -> latency histogram snapshot (served,
	// degraded, missed).
	Latency map[string]HistogramSnapshot
}

// Snapshot captures counters and histograms. Safe on a nil receiver
// (returns the zero Snapshot).
func (o *Observer) Snapshot() Snapshot {
	if o == nil {
		return Snapshot{}
	}
	s := Snapshot{Latency: make(map[string]HistogramSnapshot, len(o.lat))}
	s.TracesTotal, s.TracesDropped = o.ring.Counters()
	for outcome, h := range o.lat {
		s.Latency[outcome] = h.Snapshot()
	}
	return s
}

// jsonlSinkDepth bounds the asynchronous sink's queue; when the writer
// goroutine falls behind, new traces are dropped rather than blocking the
// serving runtime.
const jsonlSinkDepth = 1024

// NewJSONLSink streams finalized traces to w as serving-log records, one
// JSON object per line — the metrics JSONL format cmd/schemble-analyze
// consumes. Writing happens on a dedicated goroutine behind a bounded
// queue, so the returned sink never blocks the caller; traces arriving
// while the queue is full are dropped. closeFn flushes and stops the
// writer (further sink calls are ignored) and reports how many traces
// were dropped.
func NewJSONLSink(w io.Writer) (sink func(DecisionTrace), closeFn func() (dropped uint64, err error)) {
	ch := make(chan DecisionTrace, jsonlSinkDepth)
	done := make(chan error, 1)
	var mu sync.Mutex
	var closed bool
	var dropped uint64

	go func() {
		bw := bufio.NewWriter(w)
		enc := json.NewEncoder(bw)
		var firstErr error
		for t := range ch {
			if firstErr != nil {
				continue
			}
			if err := enc.Encode(t.Record()); err != nil {
				firstErr = err
			}
		}
		if err := bw.Flush(); firstErr == nil {
			firstErr = err
		}
		done <- firstErr
	}()

	sink = func(t DecisionTrace) {
		mu.Lock()
		defer mu.Unlock()
		if closed {
			return
		}
		select {
		case ch <- t:
		default:
			dropped++
		}
	}
	closeFn = func() (uint64, error) {
		mu.Lock()
		if closed {
			mu.Unlock()
			return dropped, nil
		}
		closed = true
		mu.Unlock()
		close(ch)
		err := <-done
		return dropped, err
	}
	return sink, closeFn
}
