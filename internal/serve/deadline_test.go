package serve

import (
	"context"
	"testing"
	"time"

	"schemble/internal/ensemble"
	"schemble/internal/testutil"
)

// This file drives gate_test.go's rig on a frozen clock through the
// coordinator's deadlines: one timer, armed for the earliest deadline still
// to come, wakes it, and each turn resolves what the deadlines have caught
// up with before it plans.

// armedFor fails the test unless, once the runtime is quiet, the
// coordinator's timer is armed for want after from — or disarmed, for want
// never.
func (g *gateRig) armedFor(t *testing.T, from, want time.Duration, what string) {
	t.Helper()
	g.clk.advance(t, 0)
	got := never
	for _, w := range g.clk.armed { // the runtime is quiet: no one arms
		if w.woke == &g.clk.toCoord {
			got = w.at - from
		}
	}
	if got != want {
		t.Fatalf("%s: timer armed for %v, want %v", what, got, want)
	}
}

// TestDeadlineResolvedEarlyLeavesNoWake: a committed request's deadline
// stays armed until the request resolves. Two requests commit a minute
// apart; the timer is armed for the first one's deadline, then, once it is
// served, for the second one's, and once that is served, for nothing.
func TestDeadlineResolvedEarlyLeavesNoWake(t *testing.T) {
	rig := newFrozenRig(t, 2, ensemble.Empty)
	from := rig.clk.now()
	rig.commit(t, 1)
	rig.clk.advance(t, time.Minute)
	rig.commit(t, 1)
	rig.armedFor(t, from, 2*time.Hour, "both in flight")
	for i, left := range []time.Duration{2*time.Hour + time.Minute, never} {
		rig.finish(t, 0)
		rig.finish(t, 1)
		if res := rig.result(t, i); res.Missed || res.Degraded {
			t.Fatalf("request %d: %+v, want served", i, res)
		}
		rig.armedFor(t, from, left, "a request served")
	}
}

// TestDeadlineTimerAloneWakesCoordinator: model 0 holds a running and a
// staged request and model 1 is blocked, so two more arrivals wait in the
// buffer with nothing to come that would wake the coordinator. Both are due
// before the committed pair, whose deadlines arm the timer too. Advancing
// the clock to each one's deadline in turn resolves that one alone, as a
// miss.
func TestDeadlineTimerAloneWakesCoordinator(t *testing.T) {
	rig := newFrozenRig(t, 2, ensemble.Single(1))
	rig.commit(t, 2)
	rig.arriveWithin(30 * time.Minute)
	rig.arriveWithin(90 * time.Minute)
	rig.clk.advance(t, 0)
	for i, step := range []time.Duration{30 * time.Minute, time.Hour} {
		rig.clk.advance(t, step)
		if res := rig.result(t, 2+i); !res.Missed || res.Rejected {
			t.Fatalf("request %d at its deadline: %+v, want a plain miss", 2+i, res)
		}
		if st := rig.srv.Stats(); st.Buffered != 1-i || st.Missed != uint64(i+1) || st.InFlight != 2 {
			t.Fatalf("after deadline %d: buffered %d missed %d inflight %d", i, st.Buffered, st.Missed, st.InFlight)
		}
	}
}

// TestDeadlineDegradesWhileDraining: a drain waits for committed work, and
// its turns still take the deadline step. A request holding one of its two
// outputs at its deadline serves it degraded, which completes the drain.
func TestDeadlineDegradesWhileDraining(t *testing.T) {
	rig := newFrozenRig(t, 2, ensemble.Empty)
	rig.commit(t, 1)
	rig.finish(t, 1)
	rig.clk.advance(t, 0)
	turns, _ := rig.turns()
	drained := make(chan error, 1)
	go func() { drained <- rig.srv.Drain(context.Background()) }()
	testutil.Poll(t, rigWait, "the drain's turn", func() bool {
		n, _ := rig.turns()
		return n == turns+1
	})
	rig.clk.advance(t, 2*time.Hour)
	if res := rig.result(t, 0); !res.Degraded || res.Missed || res.Subset != ensemble.Single(1) {
		t.Fatalf("draining request at its deadline: %+v, want degraded to model 1", res)
	}
	rig.finish(t, 0)
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
}
