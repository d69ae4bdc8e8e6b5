package serve

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"schemble/internal/dataset"
	"schemble/internal/ensemble"
	"schemble/internal/model"
	"schemble/internal/testutil"
)

// This file drives gate_test.go's wall-clock-free rig through the
// coordinator's turn: the events that queued while a pass was held are
// handled together and planned once, an event that arrives while they are
// being handled waits for the next turn, and the handlers keep their
// per-event semantics inside a batch.

// queued waits until n events sit in the coordinator's inbox. The scheduler
// must be held, so that nothing takes them out meanwhile.
func (g *gateRig) queued(t *testing.T, n int) {
	t.Helper()
	testutil.Poll(t, rigWait, "events queued behind the held pass", func() bool {
		return len(g.srv.events) == n
	})
}

// turns reads the turn instrument: how many turns the coordinator has begun
// planning for and how many events they handled between them. A turn books
// itself once its events are handled, before its pass.
func (g *gateRig) turns() (turns, events int) {
	h := g.srv.Stats().TurnEvents
	return int(h.Count), int(h.Sum / time.Second)
}

// holdPass commits one request, then leaves the coordinator inside Schedule
// planning a second: the state every script here queues its events behind.
func (g *gateRig) holdPass(t *testing.T) {
	t.Helper()
	g.commit(t, 1)
	g.sched.hold()
	g.arrive()
	g.sched.awaitHeld(t)
}

// TestTurnPlansQueuedEventsOnce: three submissions and a task completion
// queue while a pass is held. The turn that follows handles all four and
// calls the scheduler once, with all three queries in front of it.
func TestTurnPlansQueuedEventsOnce(t *testing.T) {
	rig := newGateRig(t, 3, ensemble.Empty)
	rig.holdPass(t)
	const k = 3
	for i := 0; i < k; i++ {
		rig.arrive()
	}
	rig.queued(t, k)
	rig.finish(t, 0)
	rig.queued(t, k+1)
	turns, events := rig.turns()
	rig.sched.resumeHeld(t)
	// The held pass stages the second request. The completion left model 0
	// room for one of the three, but model 1 still holds a running task and a
	// staged one, so the batch's pass commits none of them.
	testutil.Poll(t, rigWait, "the batch planned", func() bool {
		st := rig.srv.Stats()
		nt, _ := rig.turns()
		return st.InFlight == 2 && st.Buffered == k && nt == turns+1 && rig.sched.calls.Load() == 3
	})
	if got := rig.sched.last.Load(); got != k {
		t.Fatalf("the batch's pass planned %d queries, want all %d", got, k)
	}
	if _, ne := rig.turns(); ne != events+k+1 {
		t.Fatalf("the turn handled %d events, want %d", ne-events, k+1)
	}
	// Model 1's completion leaves both models room for one.
	rig.finish(t, 1)
	testutil.Poll(t, rigWait, "one of the batch committed", func() bool {
		st := rig.srv.Stats()
		return st.Served == 1 && st.InFlight == 2 && st.Buffered == k-1
	})
	if got := rig.sched.calls.Load(); got != 4 {
		t.Fatalf("%d scheduler calls, want 4: one pass for the whole batch, one for the completion", got)
	}
}

// heldAverage is the rig's aggregator, which the test can hold inside a
// settlement: the coordinator is then stuck in the middle of handling a
// batch.
type heldAverage struct {
	ensemble.Average
	held    atomic.Bool
	entered chan struct{}
	resume  chan struct{}
	quit    chan struct{}
}

func (a *heldAverage) Aggregate(task dataset.Task, outs []model.Output, present ensemble.Subset) model.Output {
	if a.held.CompareAndSwap(true, false) {
		for _, ch := range []chan struct{}{a.entered, a.resume} {
			select {
			case ch <- struct{}{}:
			case <-a.quit:
			}
		}
	}
	return a.Average.Aggregate(task, outs, present)
}

// TestTurnLeavesLaterEventsToTheNextTurn: a turn takes what was queued when
// it began and no more. The first request's two completions and a third
// submission queue behind a held pass; while the turn that takes them is
// held inside the settlement, a fourth request arrives. The turn's pass sees
// the third alone, and the fourth gets the turn after.
func TestTurnLeavesLaterEventsToTheNextTurn(t *testing.T) {
	agg := &heldAverage{entered: make(chan struct{}), resume: make(chan struct{})}
	rig := newGateRig(t, 3, ensemble.Empty, func(c *Config) {
		c.Ensemble = ensemble.New(dataset.Classification, c.Ensemble.Models, agg, nil)
	})
	agg.quit = rig.quit
	rig.holdPass(t)
	rig.finish(t, 0)
	rig.queued(t, 1) // or the settling completion could be queued first
	rig.finish(t, 1)
	rig.queued(t, 2)
	rig.arrive()
	rig.queued(t, 3)
	turns, events := rig.turns()
	agg.held.Store(true)
	rig.sched.resumeHeld(t)
	select {
	case <-agg.entered:
	case <-time.After(rigWait):
		t.Fatal("the first request never reached its settlement")
	}
	rig.arrive() // the fourth, while the turn is two events into three
	rig.queued(t, 2)
	rig.sched.hold()
	<-agg.resume
	rig.sched.awaitHeld(t)
	if got := rig.sched.last.Load(); got != 1 {
		t.Fatalf("the turn's pass was shown %d queries, want the third request alone", got)
	}
	if nt, ne := rig.turns(); nt != turns+1 || ne != events+3 {
		t.Fatalf("%d turns of %d events since the first held pass, want one turn of 3", nt-turns, ne-events)
	}
	rig.sched.resumeHeld(t)
	testutil.Poll(t, rigWait, "the fourth request's own turn", func() bool {
		nt, ne := rig.turns()
		return nt == turns+2 && ne == events+3+1
	})
	if got := rig.sched.calls.Load(); got != 4 {
		t.Fatalf("%d scheduler calls, want 4: the fourth request's turn planned it", got)
	}
	if res := rig.result(t, 0); res.Missed || res.Subset != ensemble.Full(2) {
		t.Fatalf("first request: %+v", res)
	}
}

// TestTurnCutoffAndDeadlineDegrade: the cutoff-and-deadline rule (DESIGN.md
// "Wall-clock waits") across turns. A request holds model 1's output; model
// 0's task was cut off at the deadline. Either that completion and the
// deadline are due in one turn, or the deadline's own turn comes first and
// the completion in the next: both resolve the request degraded to the
// model that finished.
func TestTurnCutoffAndDeadlineDegrade(t *testing.T) {
	for _, deadlineFirst := range []bool{false, true} {
		rig := newFrozenRig(t, 3, ensemble.Empty)
		rig.holdPass(t)
		rig.finish(t, 1)
		rig.queued(t, 1)
		// The held coordinator takes nothing: the test may, to learn the
		// request.
		done1 := <-rig.srv.events
		first := done1.req
		rig.srv.events <- done1
		cutoff := event{kind: evTaskDone, req: first, k: 0, ran: true, failed: true, cutoff: true}
		turns, events := rig.turns()
		if deadlineFirst {
			rig.sched.resumeHeld(t)
			rig.clk.advance(t, 2*time.Hour)
		} else {
			// Model 0's task, as a worker that gave up at the deadline
			// reports it, heard of by the coordinator just after the
			// deadline, as on the wall clock. The coordinator is inside
			// Schedule and the task's own worker inside Predict: nothing
			// else reads the request now.
			first.Deadline = first.Arrival - time.Nanosecond
			rig.post(cutoff)
			rig.sched.resumeHeld(t)
		}
		if res := rig.result(t, 0); !res.Degraded || res.Missed || res.Subset != ensemble.Single(1) {
			t.Fatalf("deadline first %v: %+v, want degraded to model 1", deadlineFirst, res)
		}
		if deadlineFirst {
			rig.post(cutoff)
		}
		rig.clk.advance(t, 0)
		// One turn of two events, or the deadline's turn and then one for the
		// completion; a deadline's turn counts its wake as an event.
		wantTurns, wantEvents := 1, 2
		if deadlineFirst {
			wantTurns, wantEvents = 3, 3
		}
		st := rig.srv.Stats()
		if nt, ne := rig.turns(); st.Degraded != 1 || st.Missed != 0 || st.InFlight != 1 || nt-turns != wantTurns || ne-events != wantEvents {
			t.Fatalf("deadline first %v: degraded %d missed %d inflight %d, %d turns of %d events",
				deadlineFirst, st.Degraded, st.Missed, st.InFlight, nt-turns, ne-events)
		}
		rig.shutdown()
	}
}

// TestTurnDeadlinesLeaveBeforeThePass: three submissions in one batch, two
// of them past their deadlines when the batch is handled. The two resolve
// missed in the turn's deadline step, before its pass: the pass is shown
// the third alone.
func TestTurnDeadlinesLeaveBeforeThePass(t *testing.T) {
	rig := newGateRig(t, 3, ensemble.Empty)
	rig.holdPass(t)
	for i := 0; i < 3; i++ {
		rig.arrive()
	}
	rig.queued(t, 3)
	// The held coordinator takes nothing: the test may, to learn the requests.
	batch := []event{<-rig.srv.events, <-rig.srv.events, <-rig.srv.events}
	for _, e := range batch[:2] {
		e.req.Deadline = e.req.Arrival
	}
	for _, e := range batch {
		rig.srv.events <- e
	}
	rig.sched.resumeHeld(t)
	for i := 2; i < 4; i++ {
		if res := rig.result(t, i); !res.Missed || res.Rejected {
			t.Fatalf("request %d at its deadline: %+v, want a plain miss", i, res)
		}
	}
	testutil.Poll(t, rigWait, "the batch planned", func() bool {
		st := rig.srv.Stats()
		return rig.sched.calls.Load() == 3 && st.Buffered == 1 && st.InFlight == 2 && st.Missed == 2
	})
	if got := rig.sched.last.Load(); got != 1 {
		t.Fatalf("the pass was shown %d queries, want only the one still waiting", got)
	}
}

// TestTurnDrainMidBatch: a batch holds a submission, the drain event and a
// second submission that raced past the latch. The first was buffered and
// misses, the second is refused, and what was committed runs to completion.
func TestTurnDrainMidBatch(t *testing.T) {
	rig := newGateRig(t, 3, ensemble.Empty)
	rig.holdPass(t)
	rig.arrive()
	rig.queued(t, 1)
	rig.srv.events <- event{kind: evDrain}
	rig.arrive()
	rig.queued(t, 3)
	rig.sched.resumeHeld(t)
	if res := rig.result(t, 2); !res.Missed || res.Rejected {
		t.Fatalf("buffered before the drain: %+v, want a plain miss", res)
	}
	if res := rig.result(t, 3); !res.Rejected {
		t.Fatalf("submitted behind the drain: %+v, want rejected", res)
	}
	if got := rig.sched.calls.Load(); got != 2 {
		t.Fatalf("%d scheduler calls, want 2: a draining turn does not plan", got)
	}
	for i := 0; i < 2; i++ {
		rig.finish(t, 0)
		rig.finish(t, 1)
		if res := rig.result(t, i); res.Missed || res.Subset != ensemble.Full(2) {
			t.Fatalf("request %d under drain: %+v, want the full pair served", i, res)
		}
	}
	// The last committed request resolving completes the drain.
	if err := rig.srv.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
}
