package serve

import (
	"context"
	"math"
	"reflect"
	"testing"
	"time"

	"schemble/internal/adapt"
	"schemble/internal/core"
	"schemble/internal/dataset"
	"schemble/internal/model"
	"schemble/internal/pipeline"
	"schemble/internal/sim"
	"schemble/internal/testutil"
	"schemble/internal/trace"
)

// TestServeAdaptBitIdenticalWhenOff pins the zero-config guarantee with a
// twin pair: a server with no Adapt config and one whose engine is on but
// inert (MinSamples at the uint64 ceiling pins every inflation factor at
// exactly 1; a nil Scorer keeps the calibration map at identity) must
// produce bit-identical Results request for request — the engine observes
// everything and changes nothing.
func TestServeAdaptBitIdenticalWhenOff(t *testing.T) {
	a := artifacts(t)
	plain := newServer(t, a)
	if plain.Stats().Adapt != nil {
		t.Fatal("zero-value Adapt config built an engine")
	}
	inert := New(Config{
		Ensemble:  a.Ensemble,
		Scheduler: &core.DP{Delta: 0.01},
		Rewarder:  a.Profile,
		Estimator: a.Predictor,
		TimeScale: 0.1,
		Seed:      1,
		Adapt:     adapt.Config{Enable: true, MinSamples: math.MaxUint64},
	})
	plain.Start(context.Background())
	defer plain.Stop()
	inert.Start(context.Background())
	defer inert.Stop()

	const n = 25
	for i := 0; i < n; i++ {
		rp := <-plain.Submit(a.Serve[i], time.Second)
		ri := <-inert.Submit(a.Serve[i], time.Second)
		if rp.Missed != ri.Missed {
			t.Fatalf("request %d missed diverged: plain=%v inert=%v", i, rp.Missed, ri.Missed)
		}
		if rp.Subset != ri.Subset {
			t.Fatalf("request %d subset diverged: %v vs %v",
				i, rp.Subset.Models(), ri.Subset.Models())
		}
		if !reflect.DeepEqual(rp.Output, ri.Output) {
			t.Fatalf("request %d output not bit-identical with an inert adapt engine", i)
		}
	}
	snap := inert.Stats().Adapt
	if snap == nil {
		t.Fatal("enabled engine exported no snapshot")
	}
	var samples uint64
	for k, m := range snap.Models {
		samples += m.Samples
		if m.Inflation != 1 {
			t.Errorf("model %d inflation = %v, want exactly 1 below MinSamples", k, m.Inflation)
		}
	}
	if samples == 0 {
		t.Error("inert engine observed no latencies; the twin test exercised nothing")
	}
	if snap.RecalEpochs != 0 || snap.RecalActive {
		t.Errorf("recalibration ran with a nil Scorer: epochs=%d active=%v",
			snap.RecalEpochs, snap.RecalActive)
	}
}

// adaptEquivModels is a near-deterministic zoo for the adapt-on
// equivalence test: with Jitter at 1e-12 every sampled latency truncates
// to within 1ns of the mean, so the two engines' independent latency RNG
// streams cannot push the shared adaptation state apart (sketch bucket
// counts — and therefore inflation factors — depend only on which tasks
// ran). Latencies are small so every arrival meets an idle fleet at the
// test's spacing.
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
// then plans with. (Score observation, recalibration and what a pass does
// with the refreshed costs are internal/engine's, tested there.) On a
// seeded trace whose service times step to 2x mid-run (a drift boundary
// placed in an arrival gap, so wall-clock jitter cannot move a task across
// it), both drivers must feed the same samples — per-model sample counts,
// inflation factors and latency-drift events agree — and, planning with the
// inflated costs, still commit every query to the same subset with the same
// outcome. Every detector window and the drift step is placed mid-gap, at
// least 100ms of virtual time from any observation, so the runtime's
// pacing jitter cannot flip a window assignment the simulator made at
// exact virtual instants.
func TestSimServeEquivalenceAdapt(t *testing.T) {
	seed := uint64(55)
	ds := dataset.TextMatching(dataset.Config{N: 1200, Seed: seed})
	a := pipeline.Build(pipeline.Config{
		Dataset: ds, Models: adaptEquivModels(seed),
		PredictorEpochs: 25, Seed: seed,
	})

	const (
		spacing = 600 * time.Millisecond
		n       = 24
	)
	// Mostly roomy budgets (full ensemble stays feasible across the drift
	// step) with tight 30ms arrivals sprinkled in: pre-drift those plan
	// around exec≈11ms, post-drift inflation pushes exec toward ~25ms —
	// still feasible, still single-model, so the plan shape differs from
	// the roomy ones in both engines.
	budget := func(i int) time.Duration {
		if i%5 == 3 {
			return 30 * time.Millisecond
		}
		return 300 * time.Millisecond
	}
	tr := &trace.Trace{}
	for i := 0; i < n; i++ {
		at := time.Duration(i+1) * spacing
		tr.Arrivals = append(tr.Arrivals, trace.Arrival{
			SampleIdx: i, At: at, Deadline: at + budget(i),
		})
	}
	// Step at 6.9s: between arrival 11 (6.6s, completions by ~6.69s) and
	// arrival 12 (7.2s).
	drift := trace.StepDrift(6900*time.Millisecond, 1, 2)
	adaptCfg := adapt.Config{
		Enable:        true,
		MinSamples:    4,
		DriftWindow:   1500 * time.Millisecond, // arrival gaps hit 1.2s or 1.8s, never near 1.5s
		DriftMinCount: 2,
		LatencyBand:   0.45, // mixed windows mean 1+k/n, never within 0.05 of 1.45
	}

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

	const scale = 0.25
	results := make([]Result, n)
	at := make([]time.Time, n)
	var snap *adapt.Snapshot
	// The inflation factors only grow over this trace, so the simulator's
	// final ones bound every query's planning cost from above.
	inflation := make([]float64, len(simSnap.Models))
	for k, m := range simSnap.Models {
		inflation[k] = m.Inflation
	}
	// Every detector window and the drift step sit at least 100ms of
	// virtual time from the nearest observation.
	const boundarySlack = time.Duration(float64(100*time.Millisecond) * scale)
	testutil.Unstalled(t, func() []testutil.Window {
		s := New(Config{
			Ensemble:  a.Ensemble,
			Scheduler: &core.DP{Delta: 0.01},
			Rewarder:  a.Profile,
			Estimator: a.Predictor,
			TimeScale: scale,
			Seed:      1,
			Adapt:     adaptCfg,
			Drift:     drift,
		})
		s.Start(context.Background())
		defer s.Stop()
		began := time.Now()
		chans := make([]<-chan Result, n)
		var windows []testutil.Window
		for i := 0; i < n; i++ {
			// Each arrival is paced against the run's start, not the one
			// before it, so a late one does not push every later arrival
			// (and observation) towards the next boundary.
			due := began.Add(time.Duration(float64(tr.Arrivals[i].At) * scale))
			//schemble:sleep-ok trace pacing: the equivalence contract requires each arrival (and so each detector window and recal epoch) to land in the same virtual-time gap as in the simulated trace
			time.Sleep(time.Until(due))
			at[i] = time.Now()
			chans[i] = s.Submit(a.Serve[i], budget(i))
			windows = append(windows, testutil.Window{From: due, To: at[i], Slack: boundarySlack})
		}
		collect(t, chans, results)
		snap = s.Stats().Adapt
		// A query's completion is an observation too, so while it runs the
		// boundary margin applies wherever it is the smaller one.
		for _, w := range pacedWindows(at, results, recs, a.Ensemble.Models, inflation, scale) {
			if w.Slack > boundarySlack {
				w.Slack = boundarySlack
			}
			windows = append(windows, w)
		}
		return windows
	})
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
