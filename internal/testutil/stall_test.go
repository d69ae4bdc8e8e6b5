package testutil

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestViolation(t *testing.T) {
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	const ms = time.Millisecond
	cases := []struct {
		name    string
		stalls  []Stall
		windows []Window
		want    bool
	}{
		{"no stalls", nil, []Window{{at(0), at(100), 0}}, false},
		{"no windows", []Stall{{at(0), at(500)}}, nil, false},
		{"long stall outside every window", []Stall{{at(40), at(90)}}, []Window{{at(0), at(30), 5 * ms}, {at(100), at(130), 5 * ms}}, false},
		{"stall within the slack", []Stall{{at(10), at(14)}}, []Window{{at(0), at(30), 5 * ms}}, false},
		{"stall over the slack", []Stall{{at(10), at(16)}}, []Window{{at(0), at(30), 5 * ms}}, true},
		{"stall straddling the window's start", []Stall{{at(-10), at(1)}}, []Window{{at(0), at(30), 5 * ms}}, true},
		{"stall straddling the window's end", []Stall{{at(29), at(60)}}, []Window{{at(0), at(30), 5 * ms}}, true},
		{"stall spanning an instant-long window", []Stall{{at(5), at(25)}}, []Window{{at(10), at(10), 5 * ms}}, true},
		{"stall ending as the window starts", []Stall{{at(-20), at(0)}}, []Window{{at(0), at(30), 5 * ms}}, false},
		{"judged by the window it fell in", []Stall{{at(110), at(120)}}, []Window{{at(0), at(30), 5 * ms}, {at(100), at(130), 50 * ms}}, false},
	}
	for _, c := range cases {
		if _, _, got := violation(c.stalls, c.windows); got != c.want {
			t.Errorf("%s: violation = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestStallWatchSeesAHoggedProcessor produces a stall without a sleep:
// with one P, a goroutine that spins keeps the watchdog off the processor
// until the runtime preempts it, some 10ms later.
func TestStallWatchSeesAHoggedProcessor(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	w := WatchStalls()
	runtime.Gosched() // let the watchdog reach its ticker
	began := time.Now()
	for time.Since(began) < 60*time.Millisecond {
	}
	spun := time.Now()
	stalls := w.Stop()
	var longest time.Duration
	for i, s := range stalls {
		if !s.From.Before(s.To) || (i > 0 && s.From.Before(stalls[i-1].To)) {
			t.Fatalf("stalls out of order: %v", stalls)
		}
		if s.To.Before(began) || spun.Before(s.From) {
			continue
		}
		if s.Len() > longest {
			longest = s.Len()
		}
	}
	if longest < 5*time.Millisecond {
		t.Fatalf("a 60ms spin on the only P showed as a longest stall of %v (%d stalls)", longest, len(stalls))
	}
}

// recTB records what Unstalled reports.
type recTB struct {
	testing.TB
	logs  int
	fatal string
}

func (r *recTB) Helper()                                {}
func (r *recTB) Logf(string, ...interface{})            { r.logs++ }
func (r *recTB) Fatalf(format string, _ ...interface{}) { r.fatal = format }
func scripted(runs *int, stalled ...bool) func() func() []Stall {
	t0 := time.Now()
	return func() func() []Stall {
		run := *runs
		return func() []Stall {
			if run < len(stalled) && stalled[run] {
				return []Stall{{t0, t0.Add(time.Second)}}
			}
			return nil
		}
	}
}

func TestUnstalledRerunsStalledRuns(t *testing.T) {
	t0 := time.Now()
	window := []Window{{t0, t0.Add(time.Second), time.Millisecond}}
	cases := []struct {
		name     string
		stalled  []bool
		wantRuns int
		fatal    bool
	}{
		{"first run keeps pace", []bool{false}, 1, false},
		{"one stalled run is made again", []bool{true, false}, 2, false},
		{"the third run may still pass", []bool{true, true, false}, 3, false},
		{"three stalled runs fail, unjudged", []bool{true, true, true, false}, 3, true},
	}
	for _, c := range cases {
		runs := 0
		var tb recTB
		unstalled(&tb, func() []Window { runs++; return window }, scripted(&runs, c.stalled...))
		if runs != c.wantRuns || (tb.fatal != "") != c.fatal {
			t.Errorf("%s: %d runs, fatal %q; want %d runs, fatal %v", c.name, runs, tb.fatal, c.wantRuns, c.fatal)
		}
		if c.fatal && !strings.Contains(tb.fatal, "stalled") {
			t.Errorf("%s: failure does not say the host stalled: %q", c.name, tb.fatal)
		}
	}
}

func TestParkedInSelect(t *testing.T) {
	const frame = "testutil.parkHere"
	before := ParkedInSelect(frame)
	release := make(chan struct{})
	done := make(chan struct{})
	go parkHere(release, done)
	Poll(t, 5*time.Second, "goroutine parked", func() bool { return ParkedInSelect(frame) == before+1 })
	close(release)
	<-done
	Poll(t, 5*time.Second, "goroutine gone", func() bool { return ParkedInSelect(frame) == before })
}

func parkHere(release, done chan struct{}) {
	select {
	case <-release:
	case <-time.After(time.Hour):
	}
	close(done)
}
