package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// spanKind names a layer boundary the harness records from outside.
type spanKind uint8

const (
	spRequest      spanKind = iota // intended send -> result in the caller's hands
	spHandle                       // httpserve.Handler.ServeHTTP
	spSubmit                       // serve.Server.SubmitClass call -> return
	spScore                        // discrepancy.ScoreEstimator.Predict
	spKey                          // rcache.Keyer.Key
	spSchedule                     // core.Scheduler.Schedule
	spExec                         // model.SampleLatency call -> model.Predict return
	spModelPredict                 // model.Model.Predict
	spAggregate                    // ensemble.Aggregator.Aggregate
	spAdaptScore                   // adapt.OutcomeScorer.Score
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"request", "httpserve.handle", "serve.submit", "discrepancy.predict",
	"rcache.key", "core.schedule", "model.exec", "model.predict",
	"ensemble.aggregate", "adapt.score",
}

// spanParent is the span that causes each kind; a kind mapped to itself has
// no parent (the request root, and coordinator-side work that serves the
// whole buffer rather than one request).
var spanParent = [numSpanKinds]spanKind{
	spRequest:      spRequest,
	spHandle:       spRequest,
	spSubmit:       spHandle,
	spScore:        spSubmit,
	spKey:          spSubmit,
	spSchedule:     spSchedule,
	spExec:         spRequest,
	spModelPredict: spExec,
	spAggregate:    spAggregate,
	spAdaptScore:   spAdaptScore,
}

// noRequest marks spans that belong to no single request.
const noRequest = -1

// span is one recorded interval. Times are nanoseconds since the tracer's
// epoch; parent is an index into the tracer's span list, -1 for roots; sub
// is the model index on model.* spans and -1 elsewhere.
type span struct {
	kind       spanKind
	sub        int8
	req        int32
	parent     int32
	start, end int64
}

func (s span) dur() int64 { return s.end - s.start }

// tracer keeps spans in memory for the length of one traced run. It is
// shared by every wrapper, so add is the one synchronised entry point.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<18)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(kind spanKind, req int, start, end int64) {
	t.addSub(kind, -1, req, start, end)
}

func (t *tracer) addSub(kind spanKind, sub, req int, start, end int64) {
	t.mu.Lock()
	t.spans = append(t.spans, span{kind: kind, sub: int8(sub), req: int32(req), parent: -1, start: start, end: end})
	t.mu.Unlock()
}

// linkSpans resolves each span's parent: the span of the parent kind, on
// the same request (and the same model, where both carry one), that
// encloses its start. A span whose intended parent kind was not recorded
// (serve.submit is invisible behind the HTTP handler) climbs to the next
// ancestor kind that was.
func linkSpans(spans []span) {
	type key struct {
		req  int32
		kind spanKind
	}
	byReq := make(map[key][]int32)
	for i, s := range spans {
		if s.req != noRequest {
			k := key{s.req, s.kind}
			byReq[k] = append(byReq[k], int32(i))
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.req == noRequest {
			continue
		}
		for pk := s.kind; spanParent[pk] != pk && s.parent < 0; {
			pk = spanParent[pk]
			for _, ci := range byReq[key{s.req, pk}] {
				c := spans[ci]
				if c.sub >= 0 && s.sub >= 0 && c.sub != s.sub {
					continue
				}
				if c.start <= s.start && s.start <= c.end {
					s.parent = ci
					break
				}
			}
		}
	}
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its child spans cover (overlapping children are not double-counted).
func selfTimes(spans []span) []int64 {
	children := make(map[int32][]int32)
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[int32(i)]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start })
		covered, cursor := int64(0), s.start
		for _, ci := range kids {
			lo, hi := max(spans[ci].start, cursor), min(spans[ci].end, s.end)
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// writeSpans dumps the trace as JSON lines: one span per line, times in
// microseconds since the run's epoch.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type line struct {
		ID      int     `json:"id"`
		Name    string  `json:"name"`
		StartUS float64 `json:"start_us"`
		EndUS   float64 `json:"end_us"`
		Parent  int32   `json:"parent"`
		Request int32   `json:"request"`
	}
	for i, s := range spans {
		if err := enc.Encode(line{i, spanNames[s.kind], float64(s.start) / 1e3, float64(s.end) / 1e3, s.parent, s.req}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
