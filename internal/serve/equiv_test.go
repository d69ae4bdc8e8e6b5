package serve

import (
	"context"
	"testing"
	"time"

	"schemble/internal/core"
	"schemble/internal/dataset"
	"schemble/internal/sim"
	"schemble/internal/trace"
)

// replay puts s on a frozen clock, starts it and submits tr's queries to
// it, each at its arrival's virtual instant and in its class, then runs the
// clock an hour on and returns the results in submission order: on that
// clock every query has resolved by then.
func replay(t *testing.T, s *Server, tr *trace.Trace, samples []*dataset.Sample) []Result {
	t.Helper()
	clk, chans := play(t, s, tr, samples)
	return collect(t, clk, chans)
}

// play is replay up to the last arrival: it returns the clock, standing at
// that arrival's instant, and the result channels in submission order.
func play(t *testing.T, s *Server, tr *trace.Trace, samples []*dataset.Sample) (*testClock, []<-chan Result) {
	t.Helper()
	clk := useTestClock(s, true)
	s.Start(context.Background())
	t.Cleanup(s.Stop)
	start := clk.now() // the anchor of the server's virtual time
	chans := make([]<-chan Result, len(tr.Arrivals))
	for i, a := range tr.Arrivals {
		at := start.Add(time.Duration(float64(a.At) * s.scale))
		clk.advance(t, at.Sub(clk.now()))
		chans[i] = s.SubmitClass(samples[a.SampleIdx], a.Deadline-a.At, a.Class)
	}
	return clk, chans
}

// collect runs clk an hour on and returns the results of chans, failing the
// test for any that has none.
func collect(t *testing.T, clk *testClock, chans []<-chan Result) []Result {
	t.Helper()
	clk.advance(t, time.Hour)
	results := make([]Result, len(chans))
	for i, ch := range chans {
		if len(ch) == 0 {
			t.Fatalf("query %d never resolved in the runtime", i)
		}
		results[i] = <-ch
	}
	return results
}

// TestSimServeEquivalence is the driver-agreement check. The simulator and
// the live runtime run one decision pipeline (internal/engine, whose own
// tests pin its order, its pass and its settlement feature by feature), so
// what is left to compare is what each driver feeds it: the capacity view,
// the cost vector and the clock. Given the same fitted pipeline, the same
// seeded trace, single replicas, no batching and no faults, the two must
// commit every query to the same model subset and produce the same outcome
// (served vs missed) per query. The trace spaces arrivals so each query is
// planned against an idle fleet — the regime where a scheduling decision
// depends only on (score, deadline, exec), and where the drivers' own
// choices (commit order, what room means, when a pass runs) have nothing to
// decide — and mixes deadline budgets that exercise full-ensemble,
// single-model, and infeasible plans. The runtime runs on a frozen clock
// (replay), so it plans each query at the instant the simulator does, and
// no host can make it late.
//
// Two wider versions of this test were deleted when the pipeline became one
// implementation. What TestSimServeEquivalenceClassed asserted: the class a
// record carries and the class-default deadline (engine.Classify, one
// implementation; per driver TestSimClassedUnknownClassDefaults and the
// zero-deadline SubmitClass calls of submit_order_test.go), subset and
// outcome agreement (this test), nothing shed below the gate (internal/qos).
// What TestSimServeEquivalenceCached asserted: which queries are answered
// from the cache and with what (internal/engine's TestArriveHitIsNeverShed
// and TestSettleFillsAndLearnsOnlyFromCleanResults; per driver
// TestServeCacheHitFlow and TestSimClassedFlashCrowdCached), the lookup
// counters (one lookup per arrival: TestArriveHitIsNeverShed,
// TestFeatureMatrix), subset and outcome agreement (this test).
func TestSimServeEquivalence(t *testing.T) {
	a := artifacts(t)
	const spacing = 400 * time.Millisecond
	budgets := []time.Duration{
		300 * time.Millisecond, 60 * time.Millisecond, 300 * time.Millisecond, 10 * time.Millisecond, 300 * time.Millisecond, 60 * time.Millisecond,
		300 * time.Millisecond, 300 * time.Millisecond, 10 * time.Millisecond, 60 * time.Millisecond, 300 * time.Millisecond, 300 * time.Millisecond,
	}
	tr := &trace.Trace{}
	for i, b := range budgets {
		at := time.Duration(i) * spacing
		tr.Arrivals = append(tr.Arrivals, trace.Arrival{
			SampleIdx: i, At: at, Deadline: at + b,
		})
	}

	recs := sim.Run(sim.Config{
		Ensemble:  a.Ensemble,
		Refs:      a.Refs,
		Scorer:    a.Scorer,
		Scheduler: &core.DP{Delta: 0.01},
		Rewarder:  a.Profile,
		Estimator: a.Predictor,
		Seed:      1,
	}, tr, a.Serve)

	s := New(Config{
		Ensemble:  a.Ensemble,
		Scheduler: &core.DP{Delta: 0.01},
		Rewarder:  a.Profile,
		Estimator: a.Predictor,
		TimeScale: 0.2,
		Seed:      1,
	})
	results := replay(t, s, tr, a.Serve)
	st := s.Stats()

	simMissed, serveMissed := 0, 0
	for i, res := range results {
		rec := recs[i]
		if res.Subset != rec.Subset {
			t.Errorf("query %d (budget %v): runtime subset %v, simulator subset %v",
				i, budgets[i], res.Subset.Models(), rec.Subset.Models())
		}
		if res.Missed != rec.Missed {
			t.Errorf("query %d (budget %v): runtime missed=%v, simulator missed=%v",
				i, budgets[i], res.Missed, rec.Missed)
		}
		if rec.Missed {
			simMissed++
		}
		if res.Missed {
			serveMissed++
		}
	}
	// The trace is calibrated so the 10ms budgets (and only those) are
	// infeasible; if either engine misses anything else, the fixture has
	// drifted and the comparison above lost its meaning.
	if want := 2; simMissed != want || serveMissed != want {
		t.Errorf("missed counts: sim=%d serve=%d, want %d each (the infeasible budgets)",
			simMissed, serveMissed, want)
	}
	if st.Degraded != 0 || st.Rejected != 0 {
		t.Errorf("faultless equivalence run produced degraded=%d rejected=%d",
			st.Degraded, st.Rejected)
	}
}
