package serve

import (
	"context"
	"testing"
	"time"

	"schemble/internal/core"
	"schemble/internal/ensemble"
	"schemble/internal/metrics"
	"schemble/internal/model"
	"schemble/internal/sim"
	"schemble/internal/testutil"
	"schemble/internal/trace"
)

// planCost is the planning cost of running subset: the slowest chosen
// model's mean latency with the coordinator's 10% headroom, times that
// model's inflation factor when the run adapts.
func planCost(models []model.Model, subset ensemble.Subset, inflation []float64) time.Duration {
	var cost time.Duration
	for _, k := range subset.Models() {
		c := float64(models[k].MeanLatency()) * 1.1
		if inflation != nil {
			c *= inflation[k]
		}
		if time.Duration(c) > cost {
			cost = time.Duration(c)
		}
	}
	return cost
}

// pacedWindows lists, for testutil.Unstalled, the stretches of a paced
// equivalence run in which a query's fate hung on the wall clock: from
// its Submit at at[i] until it resolved (its whole budget if it missed).
// A stall there shorter than the budget less the planning cost of the
// subset the simulator chose can neither make that plan infeasible nor
// make its result late; a longer one can, and the run then says nothing
// about the engines. Queries the simulator could not place at all miss
// however the run is paced and get no window.
func pacedWindows(at []time.Time, results []Result, recs []metrics.Record,
	models []model.Model, inflation []float64, scale float64) []testutil.Window {
	var windows []testutil.Window
	for i, res := range results {
		rec := recs[i]
		if rec.Subset == ensemble.Empty {
			continue
		}
		budget := rec.Deadline - rec.Arrival
		span := res.Latency
		if res.Missed || span > budget {
			span = budget
		}
		windows = append(windows, testutil.Window{
			From:  at[i],
			To:    at[i].Add(time.Duration(float64(span) * scale)),
			Slack: time.Duration(float64(budget-planCost(models, rec.Subset, inflation)) * scale),
		})
	}
	return windows
}

// collect waits for every paced query's result, in submission order.
func collect(t *testing.T, chans []<-chan Result, results []Result) {
	t.Helper()
	for i := range results {
		select {
		case results[i] = <-chans[i]:
		case <-time.After(10 * time.Second):
			t.Fatalf("query %d never resolved in the runtime", i)
		}
	}
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
// depends only on (score, deadline, exec), not on wall-clock jitter, and
// where the drivers' own choices (commit order, what room means, when a
// pass runs) have nothing to decide — and mixes deadline budgets that
// exercise full-ensemble, single-model, and infeasible plans. Budgets sit
// far from subset-feasibility boundaries (22/88/99ms at 10% headroom) so
// the runtime's microsecond-scale planning delays cannot flip a decision
// the simulator made at exact virtual instants.
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

	const scale = 0.2
	results := make([]Result, len(budgets))
	at := make([]time.Time, len(budgets))
	var st Stats
	testutil.Unstalled(t, func() []testutil.Window {
		s := New(Config{
			Ensemble:  a.Ensemble,
			Scheduler: &core.DP{Delta: 0.01},
			Rewarder:  a.Profile,
			Estimator: a.Predictor,
			TimeScale: scale,
			Seed:      1,
		})
		s.Start(context.Background())
		defer s.Stop()
		chans := make([]<-chan Result, len(budgets))
		for i, b := range budgets {
			at[i] = time.Now()
			chans[i] = s.Submit(a.Serve[i], b)
			//schemble:sleep-ok trace pacing: the equivalence contract requires each arrival to meet an idle fleet, exactly as in the simulated trace
			time.Sleep(time.Duration(float64(spacing) * scale))
		}
		collect(t, chans, results)
		st = s.Stats()
		return pacedWindows(at, results, recs, a.Ensemble.Models, nil, scale)
	})

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
