package serve

import (
	"math"
	"testing"
	"time"

	"schemble/internal/adapt"
	"schemble/internal/core"
	"schemble/internal/dataset"
	"schemble/internal/model"
	"schemble/internal/pipeline"
	"schemble/internal/sim"
	"schemble/internal/trace"
)

// TestServeAdaptBitIdenticalWhenOff pins the zero-config guarantee with a
// twin pair: a server with no Adapt config and one whose engine is on but
// inert must produce bit-identical Results request for request — the
// engine observes everything and changes nothing. The 25 requests run one
// at a time, so no model sees the 32 samples that engage inflation: every
// factor stays exactly 1.
func TestServeAdaptBitIdenticalWhenOff(t *testing.T) {
	plain, inert := twins(t, artifacts(t), 25, func(c *Config) {
		c.Adapt = adapt.Config{Enable: true}
	})
	if plain.Stats().Adapt != nil {
		t.Fatal("zero-value Adapt config built an engine")
	}
	snap := inert.Stats().Adapt
	if snap == nil {
		t.Fatal("enabled engine exported no snapshot")
	}
	var samples uint64
	for k, m := range snap.Models {
		samples += m.Samples
		if m.Inflation != 1 {
			t.Errorf("model %d inflation = %v after %d samples, want exactly 1", k, m.Inflation, m.Samples)
		}
	}
	if samples == 0 {
		t.Error("inert engine observed no latencies; the twin test exercised nothing")
	}
}

// adaptEquivModels is a near-deterministic zoo for the adapt-on
// equivalence test: with Jitter at 1e-12 every sampled latency truncates
// to within 1ns of the mean, so the two engines' independent latency RNG
// streams cannot push the shared adaptation state apart (sketch bucket
// counts — and therefore inflation factors — depend only on which tasks
// ran). Latencies are small so every arrival meets an idle fleet at the
// test's spacing, before the drift step and after it.
func adaptEquivModels(seed uint64) []model.Model {
	cfg := []struct {
		name  string
		skill float64
		lat   time.Duration
	}{
		{"fast", 0.70, 10 * time.Millisecond},
		{"mid", 0.87, 40 * time.Millisecond},
		{"strong", 0.89, 45 * time.Millisecond},
	}
	ms := make([]model.Model, len(cfg))
	for i, c := range cfg {
		ms[i] = model.NewSynthetic(model.SyntheticConfig{
			Name: c.name, Task: dataset.Classification, Classes: 2,
			Skill: c.skill, Latency: c.lat, Jitter: 1e-12,
			OverConf: 2.0, Seed: seed + uint64(i) + 1,
		})
	}
	return ms
}

// TestSimServeEquivalenceAdapt extends the driver-agreement check to what
// only a driver can get wrong about online adaptation: the latency samples
// its executors feed adapt.ObserveLatency, and the drifted cost vector it
// then plans with. (Score observation and what a pass does with the
// refreshed costs are internal/engine's, tested there.) On a seeded trace
// whose service times step to 2x mid-run (a drift boundary placed in an
// arrival gap, so wall-clock jitter cannot move a task across it), both
// drivers must feed the same samples — per-model sample counts, inflation
// factors and latency-drift events agree — and, planning with the inflated
// costs, still commit every query to the same subset with the same
// outcome. On the frozen clock (replay) the runtime observes each sample at
// the virtual instant the simulator does; every detector window and the
// drift step still sit mid-gap, at least 100ms of virtual time from any
// observation.
//
// The trace comes in bursts sized to adapt's constants: a burst of 12
// arrivals, 120ms apart, every 2.4s. A 2s detector window opens at a
// burst's first sample and closes at the next burst's, so each window holds
// one burst: 12 samples on the fast model and 10 on the others, past the 8
// a window needs to be judged. Four bursts land 40 or more samples per
// model before the drift step, past the 32 that engage inflation; three
// after it give the two out-of-band windows a latency-drift event needs,
// and enough 2x samples to move the 0.9 quantile.
func TestSimServeEquivalenceAdapt(t *testing.T) {
	seed := uint64(55)
	ds := dataset.TextMatching(dataset.Config{N: 1200, Seed: seed})
	a := pipeline.Build(pipeline.Config{
		Dataset: ds, Models: adaptEquivModels(seed),
		PredictorEpochs: 25, Seed: seed,
	})

	const (
		burst   = 12
		bursts  = 7
		spacing = 120 * time.Millisecond
		period  = 2400 * time.Millisecond
	)
	// Mostly roomy budgets (full ensemble stays feasible across the drift
	// step) with two tight 30ms arrivals a burst: pre-drift those plan
	// around exec≈11ms, post-drift inflation pushes exec toward ~25ms —
	// still feasible, still single-model, so the plan shape differs from
	// the roomy ones in both engines.
	budget := func(i int) time.Duration {
		if i%burst == 3 || i%burst == 8 {
			return 30 * time.Millisecond
		}
		return 300 * time.Millisecond
	}
	tr := &trace.Trace{}
	for i := 0; i < burst*bursts; i++ {
		at := time.Duration(i/burst+1)*period + time.Duration(i%burst)*spacing
		tr.Arrivals = append(tr.Arrivals, trace.Arrival{
			SampleIdx: i, At: at, Deadline: at + budget(i),
		})
	}
	// Step at 11.5s: between the fourth burst (9.6s-10.92s, completions by
	// ~10.97s) and the fifth (12s).
	drift := trace.StepDrift(11500*time.Millisecond, 1, 2)
	adaptCfg := adapt.Config{Enable: true}

	recs, _, simSnap := sim.RunAdapt(sim.Config{
		Ensemble:  a.Ensemble,
		Refs:      a.Refs,
		Scorer:    a.Scorer,
		Scheduler: &core.DP{Delta: 0.01},
		Rewarder:  a.Profile,
		Estimator: a.Predictor,
		Drift:     drift,
		Adapt:     adaptCfg,
		Seed:      1,
	}, tr, a.Serve)
	if simSnap == nil {
		t.Fatal("simulator returned no adapt snapshot")
	}
	if simSnap.LatencyEvents == 0 {
		t.Fatal("fixture fired no latency drift events; the drift step lost its point")
	}

	s := New(Config{
		Ensemble:  a.Ensemble,
		Scheduler: &core.DP{Delta: 0.01},
		Rewarder:  a.Profile,
		Estimator: a.Predictor,
		TimeScale: 0.25,
		Seed:      1,
		Adapt:     adaptCfg,
		Drift:     drift,
	})
	results := replay(t, s, tr, a.Serve)
	snap := s.Stats().Adapt
	for i, res := range results {
		rec := recs[i]
		if res.Subset != rec.Subset {
			t.Errorf("query %d (budget %v): runtime subset %v, simulator subset %v",
				i, budget(i), res.Subset.Models(), rec.Subset.Models())
		}
		if res.Missed != rec.Missed {
			t.Errorf("query %d (budget %v): runtime missed=%v, simulator missed=%v",
				i, budget(i), res.Missed, rec.Missed)
		}
	}

	if snap == nil {
		t.Fatal("runtime exported no adapt snapshot")
	}
	if snap.LatencyEvents != simSnap.LatencyEvents {
		t.Errorf("latency drift event counts diverged: runtime %d, simulator %d",
			snap.LatencyEvents, simSnap.LatencyEvents)
	}
	if len(snap.Models) != len(simSnap.Models) {
		t.Fatalf("model counts diverged: %d vs %d", len(snap.Models), len(simSnap.Models))
	}
	inflated := false
	for k := range snap.Models {
		sm, im := snap.Models[k], simSnap.Models[k]
		if sm.Samples != im.Samples {
			t.Errorf("model %d sample counts diverged: runtime %d, simulator %d",
				k, sm.Samples, im.Samples)
		}
		if math.Abs(sm.Inflation-im.Inflation) > 1e-9 {
			t.Errorf("model %d inflation diverged: runtime %v, simulator %v",
				k, sm.Inflation, im.Inflation)
		}
		if sm.Inflation > 1.3 {
			inflated = true
		}
	}
	if !inflated {
		t.Error("no model's inflation tracked the 2x drift step; adaptation never engaged")
	}
}
