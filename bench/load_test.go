package main

import (
	"testing"
	"time"
)

// fakeClock is advanced by hand: sleeping moves it forward, nothing else
// does.
type fakeClock struct{ t time.Duration }

func (c *fakeClock) now() time.Duration { return c.t }
func (c *fakeClock) sleepUntil(t time.Duration) {
	if t > c.t {
		c.t = t
	}
}

// fakeTarget answers at once, except that serving request `stallAt` blocks
// the generator for `stall`.
type fakeTarget struct {
	clk     *fakeClock
	stallAt int
	stall   time.Duration
	service time.Duration
}

func (f *fakeTarget) submit(i int, _ arrival, done func(answer)) {
	if i == f.stallAt {
		f.clk.t += f.stall
	}
	f.clk.t += f.service
	done(answer{probs: []float64{0.5, 0.5}, subset: []int{0}})
}

// Latency runs from the intended send time: a 50 ms stall while sending one
// request must appear in the latency of the requests that were due during
// it, not vanish because the generator was not looking (coordinated
// omission).
func TestOpenLoopLatencyFromIntendedSendTime(t *testing.T) {
	const gap, stall, service = 10 * time.Millisecond, 50 * time.Millisecond, time.Millisecond
	arrivals := make([]arrival, 20)
	for i := range arrivals {
		arrivals[i].at = time.Duration(i+1) * gap
	}
	clk := &fakeClock{}
	recs := openLoop(clk, arrivals, &fakeTarget{clk: clk, stallAt: 5, stall: stall, service: service}, nil)

	for i, r := range recs {
		var want time.Duration
		switch {
		case i < 5:
			want = service
		default:
			// Request 5 itself took stall+service; each later request was
			// due one gap later and is served one service time later,
			// until the backlog is worked off.
			want = max(service, stall+service-time.Duration(i-5)*(gap-service))
		}
		if got := r.latency(); got != want {
			t.Errorf("request %d: latency %v, want %v (sent %v late)", i, got, want, r.sent-r.at)
		}
		if r.results.Load() != 1 {
			t.Errorf("request %d: %d results", i, r.results.Load())
		}
	}
	if late := recs[6].sent - recs[6].at; late != stall+service-gap {
		t.Errorf("request 6 was sent %v late, want %v", late, stall+service-gap)
	}
}

func TestOpenLoopRunsMarksInOrderBetweenSends(t *testing.T) {
	arrivals := []arrival{{at: 10}, {at: 20}, {at: 30}}
	clk := &fakeClock{}
	var at []time.Duration
	note := func() { at = append(at, clk.now()) }
	openLoop(clk, arrivals, &fakeTarget{clk: clk, stallAt: -1}, []mark{{15, note}, {40, note}})
	if len(at) != 2 || at[0] != 15 || at[1] != 40 {
		t.Errorf("marks ran at %v, want [15 40]", at)
	}
}

// A second delivery for one request is kept out of the record but counted,
// so the accounting check can fail the run.
func TestOpenLoopCountsDuplicateResults(t *testing.T) {
	clk := &fakeClock{}
	recs := openLoop(clk, []arrival{{at: 1}}, targetFunc(func(_ int, _ arrival, done func(answer)) {
		done(answer{missed: true})
		done(answer{})
	}), nil)
	if n := recs[0].results.Load(); n != 2 {
		t.Fatalf("results = %d, want 2", n)
	}
	if !recs[0].ans.missed {
		t.Error("the first delivery should be the one recorded")
	}
	tl := verify(nil, recs, false, counts{submitted: 1, missed: 1})
	if tl.failed != 1 {
		t.Errorf("verify failed %d requests, want 1", tl.failed)
	}
}

type targetFunc func(i int, a arrival, done func(answer))

func (f targetFunc) submit(i int, a arrival, done func(answer)) { f(i, a, done) }

func TestCollectCountsOnlyTheWindowAndOnlyGoodAnswers(t *testing.T) {
	mk := func(at, done time.Duration, a answer, bad bool) *record {
		r := &record{arrival: arrival{at: at}, sent: at + time.Millisecond, done: done, ans: a, bad: bad}
		r.results.Store(1)
		return r
	}
	ok := answer{probs: []float64{1, 0}, subset: []int{0}}
	recs := []*record{
		mk(1*time.Second, 2*time.Second, ok, false),                     // warm-up
		mk(3*time.Second, 3*time.Second+10*time.Millisecond, ok, false), // counted
		mk(4*time.Second, 4*time.Second+30*time.Millisecond, ok, false), // counted
		mk(5*time.Second, 6*time.Second, answer{missed: true}, false),   // sent, late
		mk(6*time.Second, 6*time.Second+time.Millisecond, ok, true),     // failed its output check
		mk(9*time.Second, 9*time.Second+time.Millisecond, ok, false),    // past the window
	}
	win := window{2 * time.Second, 8 * time.Second}
	s := collect(recs, win, func(r *record) bool { return r.at < 4*time.Second })
	if s.sent != 4 || s.onTime != 2 || s.agree != 1 || len(s.latMS) != 2 {
		t.Fatalf("collect = %+v", s)
	}
	m := endToEndMetrics(s, win, 1.5, usage{rssPeakKB: 2048})
	want := map[string]float64{
		"setup_s": 1.5, "goodput_rps": 2.0 / 6, "ontime_share": 0.5, "accuracy_share": 0.25,
		"latency_p50_ms": 10, "latency_p95_ms": 30, "rss_peak_mb": 2,
	}
	for k, v := range want {
		if got := m[k]; got < v-1e-9 || got > v+1e-9 {
			t.Errorf("%s = %g, want %g", k, got, v)
		}
	}
}
