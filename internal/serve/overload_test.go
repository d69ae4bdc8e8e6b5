package serve

import (
	"testing"
	"time"

	"schemble/internal/core"
	"schemble/internal/pipeline"
	"schemble/internal/trace"
)

func testClasses() []Class {
	return []Class{
		{Name: "gold", Priority: 2, Deadline: 400 * time.Millisecond, Weight: 3},
		{Name: "silver", Priority: 1, Deadline: 400 * time.Millisecond, Weight: 2},
		{Name: "bronze", Priority: 0, Deadline: 600 * time.Millisecond, Weight: 1},
	}
}

func testClassMix() []trace.ClassMix {
	return []trace.ClassMix{
		{Name: "gold", Share: 0.2, Deadline: 400 * time.Millisecond},
		{Name: "silver", Share: 0.3, Deadline: 400 * time.Millisecond},
		{Name: "bronze", Share: 0.5, Deadline: 600 * time.Millisecond},
	}
}

func newClassedServer(t *testing.T, a *pipeline.Artifacts, scale float64) *Server {
	t.Helper()
	return New(Config{
		Ensemble:  a.Ensemble,
		Scheduler: &core.DP{Delta: 0.01},
		Rewarder:  a.Profile,
		Estimator: a.Predictor,
		TimeScale: scale,
		Classes:   testClasses(),
		Seed:      1,
	})
}

type classAgg struct{ submitted, rejected, missed, degraded, served int }

func aggregateByClass(tr *trace.Trace, res []Result) map[string]*classAgg {
	byClass := map[string]*classAgg{}
	for i, arr := range tr.Arrivals {
		cs := byClass[arr.Class]
		if cs == nil {
			cs = &classAgg{}
			byClass[arr.Class] = cs
		}
		cs.submitted++
		switch {
		case res[i].Rejected:
			cs.rejected++
		case res[i].Missed:
			cs.missed++
		case res[i].Degraded:
			cs.degraded++
		default:
			cs.served++
		}
	}
	return byClass
}

// TestServeFlashCrowdSoak drives a seeded multi-class flash crowd peaking at
// 5x the fleet's bottleneck capacity through the classed runtime. It must
// (a) resolve every request exactly once, the outcome taxonomy partitioning
// the submissions overall and per class, and (b) shed — explicit
// rejections, never silent drops — from the lowest-priority classes first.
// How well the top class keeps its deadlines under the crowd is not judged
// on the wall clock: TestSimClassedFlashCrowd holds gold's miss rate to
// 0.05 deterministically, on the same engine code.
func TestServeFlashCrowdSoak(t *testing.T) {
	a := artifacts(t)
	const scale = 0.2
	const horizon = 20 * time.Second
	// Background at ~1x capacity plus a bronze-labeled crowd peaking at 5x.
	crowd := trace.FlashCrowd(trace.FlashCrowdConfig{
		BackgroundRate: 11, Classes: testClassMix(), PeakFactor: 5,
		CrowdStart: 4 * time.Second, RampUp: 2 * time.Second,
		Hold: 8 * time.Second, RampDown: 2 * time.Second,
		Horizon: horizon, Samples: a.Serve, Seed: 5,
	})
	s := newClassedServer(t, a, scale)
	agg := aggregateByClass(crowd, replay(t, s, crowd, a.Serve))
	st := s.Stats()

	// Exactly-once accounting: every submission resolved, and the outcome
	// taxonomy partitions them.
	if st.Resolved != st.Submitted {
		t.Errorf("resolved %d of %d submitted", st.Resolved, st.Submitted)
	}
	if st.Served+st.Degraded+st.Missed+st.Rejected != st.Resolved {
		t.Errorf("outcomes %d+%d+%d+%d do not partition %d resolved",
			st.Served, st.Degraded, st.Missed, st.Rejected, st.Resolved)
	}
	for _, cs := range st.Classes {
		if cs.Served+cs.Degraded+cs.Missed+cs.Rejected != cs.Submitted {
			t.Errorf("class %s: outcomes do not partition %d submitted", cs.Name, cs.Submitted)
		}
	}

	shedRate := func(name string) float64 {
		return float64(agg[name].rejected) / float64(agg[name].submitted)
	}
	// The crowd must overload the fleet enough to shed, and the shedding
	// must be priority-ordered (small tolerance absorbs arrival noise).
	if shedRate("bronze") == 0 {
		t.Error("5x flash crowd shed nothing")
	}
	if shedRate("gold") > shedRate("silver")+0.05 || shedRate("silver") > shedRate("bronze")+0.05 {
		t.Errorf("shedding not priority-ordered: gold %.3f silver %.3f bronze %.3f",
			shedRate("gold"), shedRate("silver"), shedRate("bronze"))
	}
}

// TestServeClasslessAdmissionBitIdentical is the compatibility lock: with
// Classes unset, the admission controller, ladder and per-class machinery
// must be completely inert — a twin server with explicit (non-zero)
// admission tuning but no classes produces bit-identical results to the
// plain zero-config runtime, request for request.
func TestServeClasslessAdmissionBitIdentical(t *testing.T) {
	_, tuned := twins(t, artifacts(t), 25, func(c *Config) {
		c.Admission = AdmissionConfig{Capacity: 2, Target: 50 * time.Millisecond}
	})
	st := tuned.Stats()
	if len(st.Classes) != 0 {
		t.Errorf("classless runtime reports %d classes", len(st.Classes))
	}
	if st.Ladder != 0 || st.LadderState != "full-service" {
		t.Errorf("classless runtime climbed the ladder: rung %d (%s)", st.Ladder, st.LadderState)
	}
}

// TestServeRetryAfterIdleFloor pins the Retry-After floor: an idle
// runtime advises the minimum 1s backoff, never 0.
func TestServeRetryAfterIdleFloor(t *testing.T) {
	a := artifacts(t)
	s := newClassedServer(t, a, 0.1)
	if got := s.RetryAfterSeconds(); got != 1 {
		t.Errorf("idle RetryAfterSeconds = %d, want 1", got)
	}
	if s.Load() < 0 {
		t.Errorf("idle load = %f, want >= 0", s.Load())
	}
}
