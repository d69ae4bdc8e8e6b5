package testutil

import "time"

// A test that paces a scenario on the wall clock assumes the process
// runs when it should. On a shared host it sometimes does not — tens of
// milliseconds pass with no goroutine scheduled — and a run that lost a
// deadline budget to such a stall says nothing about the code. The bench
// marks a run like that INVALID; StallWatch and Unstalled let a test do
// the same: find out, from inside, whether the process kept pace, and
// judge only a run in which it did.

// stallTick is the watchdog's period. The runtime's timers round up to
// about a millisecond on an idle process, so gaps up to twice this are
// normal and are not recorded.
const stallTick = time.Millisecond

// Stall is a stretch of wall time, on the monotonic clock, during which
// the watchdog goroutine was due to run and did not.
type Stall struct{ From, To time.Time }

// Len is how long the stall lasted.
func (s Stall) Len() time.Duration { return s.To.Sub(s.From) }

// Window is a stretch of a paced scenario that tolerates no stall longer
// than Slack: the smallest wall-clock margin of the timing assumptions
// the scenario makes between From and To.
type Window struct {
	From, To time.Time
	Slack    time.Duration
}

// StallWatch records the process's stalls while a scenario runs: a
// goroutine woken by a fast ticker reads the monotonic clock on every
// wake and keeps every gap between consecutive wakes that is longer than
// two periods. A host that descheduled the process, a collector pause and
// a starved scheduler all show up as such a gap, whichever goroutine they
// were aimed at.
type StallWatch struct {
	stop chan struct{}
	done chan []Stall
}

// WatchStalls starts a watchdog; Stop ends it.
func WatchStalls() *StallWatch {
	w := &StallWatch{stop: make(chan struct{}), done: make(chan []Stall, 1)}
	go func() {
		tick := time.NewTicker(stallTick)
		defer tick.Stop()
		var stalls []Stall
		last := time.Now()
		wake := func() {
			now := time.Now()
			if now.Sub(last) > 2*stallTick {
				stalls = append(stalls, Stall{From: last, To: now})
			}
			last = now
		}
		for {
			select {
			case <-tick.C:
				wake()
			case <-w.stop:
				wake()
				w.done <- stalls
				return
			}
		}
	}()
	return w
}

// Stop ends the watchdog and returns the stalls it saw, in time order.
func (w *StallWatch) Stop() []Stall {
	close(w.stop)
	return <-w.done
}

// violation returns the first stall that overlaps a window and outlasts
// that window's slack.
func violation(stalls []Stall, windows []Window) (Stall, Window, bool) {
	for _, s := range stalls {
		for _, w := range windows {
			if s.From.Before(w.To) && w.From.Before(s.To) && s.Len() > w.Slack {
				return s, w, true
			}
		}
	}
	return Stall{}, Window{}, false
}

// unstalledRuns is how many runs Unstalled makes before it gives up.
const unstalledRuns = 3

// Unstalled runs scenario — a wall-clock-paced run whose result means
// something only if the process kept pace — under a stall watchdog.
// scenario returns the windows in which it depended on the wall clock;
// when a stall overlapped one and outlasted its slack the run is
// discarded unjudged and made again. Unstalled returns after the first
// run that kept pace, so the caller judges that run alone and as strictly
// as it would a single run; after a third stalled run it fails the test
// saying so, because the host, not the code, is what those runs measured.
func Unstalled(t TB, scenario func() []Window) {
	t.Helper()
	unstalled(t, scenario, func() func() []Stall { return WatchStalls().Stop })
}

// unstalled is Unstalled over any watchdog: watch starts one and returns
// the function that stops it.
func unstalled(t TB, scenario func() []Window, watch func() func() []Stall) {
	t.Helper()
	for run := 1; ; run++ {
		stop := watch()
		windows := scenario()
		stalls := stop()
		s, w, stalled := violation(stalls, windows)
		if !stalled {
			t.Logf("run %d kept pace: %d stalls, none longer than the slack where it fell", run, len(stalls))
			return
		}
		if run == unstalledRuns {
			t.Fatalf("run %d of %d: the process stalled for %v where the scenario had %v of slack; "+
				"the host is too loaded to pace this scenario and no run was judged",
				run, unstalledRuns, s.Len(), w.Slack)
			return
		}
		t.Logf("run %d discarded unjudged: the process stalled for %v where the scenario had %v of slack",
			run, s.Len(), w.Slack)
	}
}
