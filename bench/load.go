package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// arrival is one generated request in wall time relative to the run's
// start: which pool sample, when it is due to be sent, and the deadline
// and class handed to the runtime (the deadline stays virtual — the
// runtime applies its own TimeScale).
type arrival struct {
	at       time.Duration
	sample   int
	deadline time.Duration
	class    string
}

// answer is what the caller got back for one request, in the harness's own
// terms so the output checks do not depend on the runtime's result type.
type answer struct {
	probs    []float64
	subset   []int
	missed   bool
	rejected bool
	degraded bool
	cached   bool
	// status is the HTTP status (0 in-process); err a transport or decode
	// failure.
	status int
	err    error
}

// onTime reports whether the answer arrived by its deadline: served,
// degraded or cached, not missed or refused.
func (a answer) onTime() bool { return a.err == nil && !a.missed && !a.rejected }

// record is one request's life as the harness saw it. Times are relative
// to the run's start; results counts deliveries so a duplicate or absent
// result is caught.
type record struct {
	arrival
	sent, done time.Duration
	ans        answer
	results    atomic.Int32
	// bad is set by the output checks: the result was malformed or wrong.
	bad bool
}

// latency is measured from the intended send time, so a stall in the
// generator or the runtime shows up in the requests queued behind it
// instead of vanishing (no coordinated omission).
func (r *record) latency() time.Duration { return r.done - r.at }

// clock is the generator's view of time; tests drive it by hand.
type clock interface {
	now() time.Duration
	sleepUntil(t time.Duration)
}

type wallClock struct{ epoch time.Time }

func (c wallClock) now() time.Duration { return time.Since(c.epoch) }
func (c wallClock) sleepUntil(t time.Duration) {
	if d := t - c.now(); d > 0 {
		time.Sleep(d)
	}
}

// target is the system under load. submit is called on the generator's
// goroutine with the request's index; done must be called exactly once,
// from any goroutine, when the result is in the caller's hands.
type target interface {
	submit(i int, a arrival, done func(answer))
}

// mark is a side action the generator performs at a fixed time between
// sends — resource snapshots at the window's edges.
type mark struct {
	at time.Duration
	fn func()
}

// openLoop sends every arrival at its due time regardless of how the
// target is doing, from this one goroutine, and returns once every result
// is back. marks must be ordered by time.
func openLoop(clk clock, arrivals []arrival, tgt target, marks []mark) []*record {
	backing := make([]record, len(arrivals))
	recs := make([]*record, len(arrivals))
	var wg sync.WaitGroup
	wg.Add(len(arrivals))
	runMarks := func(until time.Duration) {
		for len(marks) > 0 && marks[0].at <= until {
			clk.sleepUntil(marks[0].at)
			marks[0].fn()
			marks = marks[1:]
		}
	}
	for i, a := range arrivals {
		runMarks(a.at)
		clk.sleepUntil(a.at)
		r := &backing[i]
		recs[i] = r
		r.arrival = a
		r.sent = clk.now()
		tgt.submit(i, a, func(ans answer) {
			if r.results.Add(1) == 1 {
				r.done, r.ans = clk.now(), ans
				wg.Done()
			}
		})
	}
	if len(marks) > 0 {
		runMarks(marks[len(marks)-1].at)
	}
	wg.Wait()
	return recs
}

// closedLoop runs `clients` callers that each send their next request only
// when the previous one has returned, until the clock passes `until`. next
// hands out the arrivals (sample order is the workload's); do performs one
// request synchronously. Records come back in send order.
func closedLoop(clk clock, clients int, until time.Duration, next func(i int) arrival,
	do func(i int, a arrival) answer, marks []mark) []*record {
	type sent struct {
		i int
		r *record
	}
	perClient := make([][]sent, clients)
	var seq atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for clk.now() < until {
				i := int(seq.Add(1) - 1)
				r := &record{arrival: next(i)}
				r.at = clk.now()
				r.sent = r.at
				r.ans = do(i, r.arrival)
				r.done = clk.now()
				r.results.Add(1)
				perClient[c] = append(perClient[c], sent{i, r})
			}
		}()
	}
	for _, m := range marks {
		clk.sleepUntil(m.at)
		m.fn()
	}
	wg.Wait()
	recs := make([]*record, seq.Load())
	for _, list := range perClient {
		for _, s := range list {
			recs[s.i] = s.r
		}
	}
	return recs
}
