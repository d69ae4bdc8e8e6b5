package serve

import (
	"context"
	"fmt"
	"testing"
	"time"

	"schemble/internal/core"
	"schemble/internal/ensemble"
	"schemble/internal/testutil"
)

// This file drives gate_test.go's wall-clock-free rig through the staging
// rule (stageable): a replica takes a commit while the work it holds runs
// out within one task time, and a query commits only when every model of its
// subset can take one, so one task waits in each model's queue behind the
// running one and the worker starts it without the coordinator.

// commit makes n arrivals one at a time, each after the one before has
// committed, so each is its own planning pass.
func (g *gateRig) commit(t *testing.T, n int) {
	t.Helper()
	for ; n > 0; n-- {
		before := g.srv.Stats().InFlight
		g.arrive()
		testutil.Poll(t, rigWait, "arrival committed", func() bool {
			return g.srv.Stats().InFlight == before+1
		})
	}
}

// result waits for request i's result.
func (g *gateRig) result(t *testing.T, i int) Result {
	t.Helper()
	select {
	case res := <-g.results[i]:
		return res
	case <-time.After(rigWait):
		t.Fatalf("request %d never resolved", i)
		return Result{}
	}
}

// TestStagedTaskStartsWhilePlannerHeld is the property the staging rule
// exists for: with the coordinator stuck inside Schedule, a replica that
// finishes its task starts the staged one at once. The third model keeps
// the gate open, so the arrival after the hold reaches the scheduler.
func TestStagedTaskStartsWhilePlannerHeld(t *testing.T) {
	rig := newGateRig(t, 3, ensemble.Empty)
	rig.commit(t, 2) // one running and one staged on models 0 and 1
	rig.sched.hold()
	rig.arrive()
	rig.sched.awaitHeld(t)

	rig.finish(t, 0)
	testutil.Poll(t, rigWait, "staged task started on model 0", func() bool {
		return rig.models[0].entered.Load() == 2
	})
	if got := rig.sched.calls.Load(); got != 3 {
		t.Fatalf("%d scheduler calls, want 3 with the third still held", got)
	}
	st := rig.srv.Stats()
	if st.Served != 0 || st.InFlight != 2 || st.Buffered != 1 {
		t.Fatalf("the held coordinator moved: served %d inflight %d buffered %d", st.Served, st.InFlight, st.Buffered)
	}
	if n := st.Models[0].Starved.Count; n != 0 {
		t.Fatalf("%d starved waits on a replica that found its next task staged", n)
	}
	rig.sched.resumeHeld(t)
}

// TestStagedIdleReplicaTakesTwoInOnePass: three queries wait behind open
// breakers; once model 0's closes, the next pass hands its idle replica a
// task to run and one to stage, and leaves the rest buffered.
func TestStagedIdleReplicaTakesTwoInOnePass(t *testing.T) {
	rig := newGateRig(t, 2, ensemble.Full(2))
	for i := 0; i < 3; i++ {
		rig.arrive()
	}
	testutil.Poll(t, rigWait, "arrivals buffered", func() bool {
		return rig.srv.Stats().Buffered == 3
	})
	if got := rig.sched.calls.Load(); got != 0 {
		t.Fatalf("%d scheduler calls with every model blocked, want 0", got)
	}
	rig.setBreaker(0, breakerClosed)
	rig.arrive()
	testutil.Poll(t, rigWait, "two commits from one pass", func() bool {
		st := rig.srv.Stats()
		return st.InFlight == 2 && st.Buffered == 2 && st.ReplicaBusy[0][0] == 1 && st.QueueDepth[0] == 1
	})
	if got := rig.sched.calls.Load(); got != 1 {
		t.Fatalf("%d scheduler calls, want the one pass that committed both", got)
	}
	rig.finish(t, 0)
	testutil.Poll(t, rigWait, "completion staged the third", func() bool {
		st := rig.srv.Stats()
		return st.Served == 1 && st.InFlight == 2 && st.Buffered == 1
	})
	if res := rig.result(t, 0); res.Missed || res.Subset != ensemble.Single(0) {
		t.Fatalf("first request: %+v", res)
	}
}

// TestStagedCommitWaitsForEveryModel: a query commits only when every model
// of its subset can stage a task. Model 1 holds a running task and a staged
// one while model 0 is idle: a query planned onto both waits in the buffer,
// one planned onto model 0 alone commits past it, and the first commits once
// model 1 finishes its running task.
func TestStagedCommitWaitsForEveryModel(t *testing.T) {
	rig := newGateRig(t, 2, ensemble.Empty)
	rig.commit(t, 2)
	rig.finish(t, 0)
	rig.finish(t, 0)
	testutil.Poll(t, rigWait, "model 0 idle, model 1 running and staged", func() bool {
		st := rig.srv.Stats()
		return rig.models[0].entered.Load() == 2 && st.Models[0].Executed == 2 && st.ReplicaBusy[0][0] == 0 &&
			st.ReplicaBusy[1][0] == 1 && st.QueueDepth[1] == 1
	})
	calls := rig.sched.calls.Load()
	rig.arrive()
	testutil.Poll(t, rigWait, "the pair query planned", func() bool {
		return rig.sched.calls.Load() == calls+1
	})
	if st := rig.srv.Stats(); st.Buffered != 1 || st.InFlight != 2 {
		t.Fatalf("a query planned onto both models: buffered %d inflight %d, want it to wait", st.Buffered, st.InFlight)
	}
	rig.sched.alone.Store(3)
	rig.arrive()
	testutil.Poll(t, rigWait, "the model-0 query committed", func() bool {
		st := rig.srv.Stats()
		return st.Buffered == 1 && st.InFlight == 3
	})
	rig.finish(t, 1)
	testutil.Poll(t, rigWait, "the pair query committed", func() bool {
		st := rig.srv.Stats()
		return st.Served == 1 && st.Buffered == 0 && st.InFlight == 3
	})
	rig.finish(t, 0)
	rig.finish(t, 1)
	rig.finish(t, 0)
	rig.finish(t, 1)
	for i, want := range []ensemble.Subset{ensemble.Full(2), ensemble.Full(2), ensemble.Full(2), ensemble.Single(0)} {
		if res := rig.result(t, i); res.Missed || res.Subset != want {
			t.Fatalf("request %d: %+v, want served by %v", i, res, want.Models())
		}
	}
}

// earlyRig leaves model 0 idle and model 1 with a running task and a staged
// one, then submits a third request, planned onto both, which waits for
// model 1 while model 0 runs its task early: the rig is returned with that
// task inside Predict.
func earlyRig(t *testing.T) *gateRig {
	t.Helper()
	return earlyRigWithin(t, 2*time.Hour)
}

// earlyRigWithin is earlyRig with the third request's deadline budget.
func earlyRigWithin(t *testing.T, budget time.Duration) *gateRig {
	t.Helper()
	rig := newGateRig(t, 2, ensemble.Empty)
	rig.commit(t, 2)
	rig.finish(t, 0)
	rig.finish(t, 0)
	testutil.Poll(t, rigWait, "model 0 idle, model 1 running and staged", func() bool {
		st := rig.srv.Stats()
		return st.Models[0].Executed == 2 && st.ReplicaBusy[0][0] == 0 && st.ReplicaBusy[1][0] == 1 && st.QueueDepth[1] == 1
	})
	rig.arriveWithin(budget)
	testutil.Poll(t, rigWait, "model 0 running the third request's task early", func() bool {
		st := rig.srv.Stats()
		return rig.models[0].entered.Load() == 3 && st.EarlyTasks == 1 && st.Buffered == 1 && st.InFlight == 2
	})
	return rig
}

// TestStagedEarlyTask: a query planned onto models 0 and 1 waits for busy
// model 1 while idle model 0 runs its task ahead of the commit. The commit
// dispatches model 1 alone and the result aggregates both outputs; re-planned
// onto model 0 alone instead, the query resolves in the pass that re-planned
// it, with no task of its own. Re-planned by the DP while the early task
// runs, on a budget that task fits but a second hour-long slot on model 0
// does not, the query keeps model 0: the DP counts the task as its own.
func TestStagedEarlyTask(t *testing.T) {
	t.Run("commit of the rest", func(t *testing.T) {
		rig := earlyRig(t)
		rig.finish(t, 0)
		testutil.Poll(t, rigWait, "the early output in, the query still buffered", func() bool {
			st := rig.srv.Stats()
			return st.Models[0].Executed == 3 && st.ReplicaBusy[0][0] == 0 && st.Buffered == 1
		})
		rig.finish(t, 1)
		testutil.Poll(t, rigWait, "the query committed onto model 1's room", func() bool {
			st := rig.srv.Stats()
			return st.Served == 1 && st.Buffered == 0 && st.InFlight == 2 && st.EarlyUsed == 1 && st.QueueDepth[1] == 1
		})
		if st := rig.srv.Stats(); st.QueueDepth[0] != 0 || st.ReplicaBusy[0][0] != 0 || st.EarlyTasks != 1 {
			t.Fatalf("model 0 queue %d busy %d, %d early tasks: want the commit to leave model 0 alone",
				st.QueueDepth[0], st.ReplicaBusy[0][0], st.EarlyTasks)
		}
		rig.finish(t, 1)
		rig.finish(t, 1)
		if res := rig.result(t, 2); res.Missed || res.Degraded || res.Subset != ensemble.Full(2) {
			t.Fatalf("the third request: %+v, want served in full by both models", res)
		}
		if n := rig.models[0].entered.Load(); n != 3 {
			t.Fatalf("model 0 ran %d tasks, want 3", n)
		}
	})
	t.Run("re-planned by the DP, it keeps its busy early model", func(t *testing.T) {
		rig := earlyRigWithin(t, 90*time.Minute)
		rig.sched.dp.Store(&core.DP{})
		// An arrival no model can serve in time triggers the re-plan.
		rig.arriveWithin(30 * time.Minute)
		testutil.Poll(t, rigWait, "the third request committed onto its early model", func() bool {
			st := rig.srv.Stats()
			return st.InFlight == 3 && st.Buffered == 1 && st.EarlyUsed == 1
		})
		if st := rig.srv.Stats(); st.QueueDepth[0] != 0 || st.EarlyTasks != 1 {
			t.Fatalf("model 0 queue %d, %d early tasks: want the commit to leave model 0 to its early task",
				st.QueueDepth[0], st.EarlyTasks)
		}
		rig.finish(t, 0)
		if res := rig.result(t, 2); res.Missed || res.Degraded || res.Subset != ensemble.Single(0) {
			t.Fatalf("the third request: %+v, want served by model 0", res)
		}
		rig.finish(t, 1)
		rig.finish(t, 1)
		for i := 0; i < 2; i++ {
			if res := rig.result(t, i); res.Missed || res.Subset != ensemble.Full(2) {
				t.Fatalf("request %d: %+v, want served by both models", i, res)
			}
		}
	})
	t.Run("re-planned inside its early model", func(t *testing.T) {
		rig := earlyRig(t)
		rig.finish(t, 0)
		testutil.Poll(t, rigWait, "the early output in", func() bool {
			st := rig.srv.Stats()
			return st.Models[0].Executed == 3 && st.ReplicaBusy[0][0] == 0 && st.Buffered == 1
		})
		calls := rig.sched.calls.Load()
		rig.sched.alone.Store(2)
		rig.finish(t, 1)
		testutil.Poll(t, rigWait, "the query resolved", func() bool {
			st := rig.srv.Stats()
			return st.Served == 2 && st.Buffered == 0
		})
		st := rig.srv.Stats()
		if got := rig.sched.calls.Load(); got != calls+1 || st.InFlight != 1 || st.EarlyUsed != 1 {
			t.Fatalf("%d passes, %d in flight, %d early outputs used: want the one pass to commit and settle it",
				got-calls, st.InFlight, st.EarlyUsed)
		}
		if res := rig.result(t, 2); res.Missed || res.Degraded || res.Subset != ensemble.Single(0) {
			t.Fatalf("the third request: %+v, want served by model 0", res)
		}
		rig.finish(t, 1)
		if res := rig.result(t, 1); res.Missed || res.Subset != ensemble.Full(2) {
			t.Fatalf("the second request: %+v", res)
		}
		if n := rig.models[0].entered.Load(); n != 3 {
			t.Fatalf("model 0 ran %d tasks, want 3", n)
		}
	})
}

// TestStagedEarlyEndHeardAfterCommit: the coordinator alone books a task's
// end. The query waiting on model 1 has its early task on model 0; a
// completion on model 1 starts the pass that commits the query, and while
// that pass is held the early task fails, its every attempt panicking. The
// commit has not heard of the failure, so it counts model 0's task as still
// running and dispatches model 1 alone; once the failure's event is handled,
// the request counts it and, when model 1's output is in, resolves once,
// degraded to model 1. Model 0 runs the query's task once.
func TestStagedEarlyEndHeardAfterCommit(t *testing.T) {
	rig := earlyRig(t)
	rig.sched.hold()
	rig.finish(t, 1)
	rig.sched.awaitHeld(t)
	rig.models[0].broken.Store(true)
	rig.finish(t, 0)
	testutil.Poll(t, rigWait, "the early task failed and reported", func() bool {
		st := rig.srv.Stats()
		return st.Models[0].Failures == 1 && st.ReplicaBusy[0][0] == 0
	})
	rig.models[0].broken.Store(false)
	rig.sched.resumeHeld(t)
	testutil.Poll(t, rigWait, "the query committed", func() bool {
		st := rig.srv.Stats()
		return st.Served == 1 && st.Buffered == 0 && st.InFlight == 2
	})
	if st := rig.srv.Stats(); st.EarlyUsed != 1 || st.QueueDepth[0] != 0 || st.ReplicaBusy[0][0] != 0 {
		t.Fatalf("%d early outputs kept, model 0 queue %d busy %d: want the commit to count the early task as running",
			st.EarlyUsed, st.QueueDepth[0], st.ReplicaBusy[0][0])
	}
	rig.finish(t, 1)
	rig.finish(t, 1)
	if res := rig.result(t, 2); res.Missed || !res.Degraded || res.Subset != ensemble.Single(1) {
		t.Fatalf("the query: %+v, want served degraded to model 1", res)
	}
	if res := rig.result(t, 1); res.Missed || res.Subset != ensemble.Full(2) {
		t.Fatalf("the second request: %+v", res)
	}
	st := rig.srv.Stats()
	if st.Resolved != 3 || st.Degraded != 1 || st.Models[0].Executed != 3 || st.Models[1].Executed != 3 {
		t.Fatalf("resolved %d degraded %d, models ran %d and %d tasks: want 3 resolved, one degraded, 3 tasks each",
			st.Resolved, st.Degraded, st.Models[0].Executed, st.Models[1].Executed)
	}
	select {
	case res := <-rig.results[2]:
		t.Fatalf("the query resolved twice: %+v", res)
	default:
	}
}

// partRewarder gives the pair the reward 1 and model 0 alone 1 - loss.
type partRewarder struct{ loss float64 }

func (r partRewarder) Reward(_ float64, s ensemble.Subset) float64 {
	switch s {
	case ensemble.Full(2):
		return 1
	case ensemble.Single(0):
		return 1 - r.loss
	}
	return 0
}

// TestStagedPartCommit: model 1 holds a running task and a staged one while
// model 0 is idle. A query planned onto both commits onto model 0 alone when
// that gives up at most one reward step of 0.01, served in full and counted
// as a part commit; 0.011 below, it waits, as in
// TestStagedCommitWaitsForEveryModel, until model 1 finishes its running task.
func TestStagedPartCommit(t *testing.T) {
	for _, tc := range []struct {
		loss float64
		part bool
	}{{0.01, true}, {0.011, false}} {
		t.Run(fmt.Sprint(tc.loss), func(t *testing.T) {
			rig := newGateRig(t, 2, ensemble.Empty, func(c *Config) { c.Rewarder = partRewarder{tc.loss} })
			rig.commit(t, 2)
			rig.finish(t, 0)
			rig.finish(t, 0)
			testutil.Poll(t, rigWait, "model 0 idle, model 1 running and staged", func() bool {
				st := rig.srv.Stats()
				return st.Models[0].Executed == 2 && st.ReplicaBusy[0][0] == 0 && st.ReplicaBusy[1][0] == 1 && st.QueueDepth[1] == 1
			})
			calls := rig.sched.calls.Load()
			rig.arrive()
			want := ensemble.Full(2)
			if tc.part {
				testutil.Poll(t, rigWait, "the pair query committed onto model 0", func() bool {
					st := rig.srv.Stats()
					return st.Buffered == 0 && st.InFlight == 3 && st.PartCommits == 1 && st.QueueDepth[1] == 1
				})
				want = ensemble.Single(0)
				rig.finish(t, 0)
			} else {
				testutil.Poll(t, rigWait, "the pair query planned", func() bool {
					return rig.sched.calls.Load() == calls+1
				})
				if st := rig.srv.Stats(); st.Buffered != 1 || st.InFlight != 2 || st.PartCommits != 0 {
					t.Fatalf("buffered %d inflight %d part commits %d, want the query to wait",
						st.Buffered, st.InFlight, st.PartCommits)
				}
				rig.finish(t, 1)
				testutil.Poll(t, rigWait, "the pair query committed", func() bool {
					st := rig.srv.Stats()
					return st.Served == 1 && st.Buffered == 0 && st.InFlight == 2
				})
				rig.finish(t, 0)
				rig.finish(t, 1)
				rig.finish(t, 1)
			}
			if res := rig.result(t, 2); res.Missed || res.Degraded || res.Subset != want {
				t.Fatalf("the pair query: %+v, want served in full by %v", res, want.Models())
			}
		})
	}
}

// TestStagedOnePerReplica: a pool of two runs two tasks and stages two —
// one behind each replica — and buffers the fifth without planning until a
// completion makes room for exactly one more.
func TestStagedOnePerReplica(t *testing.T) {
	rig := newGateRig(t, 2, ensemble.Single(1), func(c *Config) { c.Replicas = []int{2, 2} })
	rig.commit(t, 4)
	testutil.Poll(t, rigWait, "two running, two staged", func() bool {
		st := rig.srv.Stats()
		return st.ReplicaBusy[0][0] == 1 && st.ReplicaBusy[0][1] == 1 && st.QueueDepth[0] == 2
	})
	rig.arrive()
	testutil.Poll(t, rigWait, "fifth buffered", func() bool {
		return rig.srv.Stats().Buffered == 1
	})
	if got := rig.sched.calls.Load(); got != 4 {
		t.Fatalf("%d scheduler calls, want 4: the fifth arrival met a full pool", got)
	}
	rig.finish(t, 0)
	testutil.Poll(t, rigWait, "fifth staged", func() bool {
		st := rig.srv.Stats()
		return st.Served == 1 && st.InFlight == 4 && st.Buffered == 0
	})
	rig.arrive()
	testutil.Poll(t, rigWait, "sixth buffered", func() bool {
		return rig.srv.Stats().Buffered == 1
	})
	if got := rig.sched.calls.Load(); got != 5 {
		t.Fatalf("%d scheduler calls, want 5: the pool is full again", got)
	}
}

// TestStagedDrainRunsToCompletion: staged work is committed work, so Drain
// finishes it; only the buffered request is failed.
func TestStagedDrainRunsToCompletion(t *testing.T) {
	rig := newGateRig(t, 2, ensemble.Empty)
	rig.commit(t, 2)
	rig.arrive()
	testutil.Poll(t, rigWait, "third buffered", func() bool {
		return rig.srv.Stats().Buffered == 1
	})
	drained := make(chan error, 1)
	go func() { drained <- rig.srv.Drain(context.Background()) }()
	if res := rig.result(t, 2); !res.Missed || res.Rejected {
		t.Fatalf("buffered request under drain: %+v, want a plain miss", res)
	}
	for i := 0; i < 2; i++ {
		rig.finish(t, 0)
		rig.finish(t, 1)
		if res := rig.result(t, i); res.Missed || res.Subset != ensemble.Full(2) {
			t.Fatalf("request %d under drain: %+v, want the full pair served", i, res)
		}
	}
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("Drain: %v", err)
		}
	case <-time.After(rigWait):
		t.Fatal("Drain never returned after the staged work finished")
	}
}

// TestStagedStopResolvesMissedOnce: Stop abandons running and staged work
// alike; each request resolves exactly once, as a miss, while its tasks
// are still held.
func TestStagedStopResolvesMissedOnce(t *testing.T) {
	rig := newGateRig(t, 2, ensemble.Empty)
	rig.commit(t, 2)
	stopped := make(chan struct{})
	go func() {
		rig.srv.Stop()
		close(stopped)
	}()
	for i := 0; i < 2; i++ {
		if res := rig.result(t, i); !res.Missed || res.Rejected {
			t.Fatalf("request %d after Stop: %+v, want a plain miss", i, res)
		}
	}
	rig.shutdown()
	<-stopped
	st := rig.srv.Stats()
	if st.Missed != 2 || st.Resolved != 2 || st.Submitted != 2 {
		t.Fatalf("submitted %d resolved %d missed %d, want 2 each", st.Submitted, st.Resolved, st.Missed)
	}
	for i, ch := range rig.results {
		select {
		case res := <-ch:
			t.Fatalf("request %d resolved twice: %+v", i, res)
		default:
		}
	}
}

// TestStagedSkippedWhenResolvedFirst: a request degraded at its deadline
// leaves its staged task behind. The worker skips it without running it,
// and the skip's completion event frees the room it held: the query that
// commits on it would otherwise stay buffered for good.
func TestStagedSkippedWhenResolvedFirst(t *testing.T) {
	rig := newFrozenRig(t, 2, ensemble.Empty)
	rig.commit(t, 1)
	// The second request's deadline comes first.
	rig.arriveWithin(time.Hour)
	// Model 1 finishes both its tasks; model 0 still runs the first
	// request's and holds the second's staged.
	rig.finish(t, 1)
	rig.finish(t, 1)
	testutil.Poll(t, rigWait, "model 1 done and reported, model 0 running", func() bool {
		st := rig.srv.Stats()
		return st.Models[1].Executed == 2 && st.ReplicaBusy[1][0] == 0 &&
			rig.models[0].entered.Load() == 1 && st.QueueDepth[0] == 1
	})
	rig.clk.advance(t, time.Hour)
	if res := rig.result(t, 1); !res.Degraded || res.Subset != ensemble.Single(1) {
		t.Fatalf("second request at its deadline: %+v, want degraded to model 1", res)
	}
	// With model 1 out, two more queries find model 0 full.
	rig.setBreaker(1, breakerOpen)
	rig.arrive()
	rig.arrive()
	testutil.Poll(t, rigWait, "arrivals buffered", func() bool {
		return rig.srv.Stats().Buffered == 2
	})
	// The first request's completion makes room for one; the skipped
	// task's makes room for the other.
	rig.finish(t, 0)
	testutil.Poll(t, rigWait, "both arrivals committed", func() bool {
		st := rig.srv.Stats()
		return st.Served == 1 && st.Degraded == 1 && st.InFlight == 2 && st.Buffered == 0
	})
	rig.finish(t, 0)
	rig.finish(t, 0)
	for i := 2; i < 4; i++ {
		if res := rig.result(t, i); res.Missed || res.Subset != ensemble.Single(0) {
			t.Fatalf("request %d: %+v", i, res)
		}
	}
	if got := rig.models[0].entered.Load(); got != 3 {
		t.Fatalf("model 0 ran %d tasks, want 3: the skipped one never reaches Predict", got)
	}
}

// TestStagedStarvedHistogram: a completion that finds a task staged adds
// nothing to the model's starved histogram; one that finds its queue empty
// while a query waits in the buffer — the planner held — adds exactly one
// observation when its next task arrives.
func TestStagedStarvedHistogram(t *testing.T) {
	rig := newGateRig(t, 2, ensemble.Single(1))
	starved := func() uint64 { return rig.srv.Stats().Models[0].Starved.Count }
	rig.commit(t, 2)
	rig.arrive()
	testutil.Poll(t, rigWait, "third buffered", func() bool {
		return rig.srv.Stats().Buffered == 1
	})
	rig.sched.hold()
	rig.finish(t, 0)
	rig.sched.awaitHeld(t) // planning the third behind the staged second
	testutil.Poll(t, rigWait, "staged task started", func() bool {
		return rig.models[0].entered.Load() == 2
	})
	if n := starved(); n != 0 {
		t.Fatalf("%d starved waits after a completion that found a staged task", n)
	}
	// A worker parked waiting for its next task has made its starved
	// decision; nothing else tells the test that it has.
	rig.finish(t, 0)
	testutil.Poll(t, rigWait, "model 0's replica idle", rig.clk.allIdle)
	if n := starved(); n != 0 {
		t.Fatalf("%d starved waits before the wait ended", n)
	}
	rig.sched.resumeHeld(t)
	testutil.Poll(t, rigWait, "third started", func() bool {
		return rig.models[0].entered.Load() == 3
	})
	if n := starved(); n != 1 {
		t.Fatalf("%d starved waits, want the one the held planner caused", n)
	}
	// Nothing is buffered now, so running dry is plain idleness.
	rig.finish(t, 0)
	testutil.Poll(t, rigWait, "all served, model 0's replica idle", func() bool {
		return rig.srv.Stats().Served == 3 && rig.clk.allIdle()
	})
	rig.commit(t, 1)
	if n := starved(); n != 1 {
		t.Fatalf("%d starved waits, want still 1: the replica idled with an empty buffer", n)
	}
}
