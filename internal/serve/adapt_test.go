package serve

import (
	"testing"
	"time"

	"schemble/internal/adapt"
	"schemble/internal/core"
	"schemble/internal/dataset"
	"schemble/internal/ensemble"
	"schemble/internal/model"
	"schemble/internal/pipeline"
	"schemble/internal/rng"
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

// driftModels is a near-deterministic zoo for the drift-step test: with
// Jitter at 1e-12 every sampled latency truncates to within 1ns of the mean,
// so each model's sketch sees two latencies, its own before the step and
// twice it after. Latencies are small so every arrival meets an idle fleet
// at the test's spacing, before the step and after it.
func driftModels(seed uint64) []model.Model {
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

// steppedModel draws twice its model's latency once now, the server's
// virtual time, reaches at.
type steppedModel struct {
	model.Model
	at  time.Duration
	now func() time.Duration
}

func (m steppedModel) SampleLatency(src *rng.Source) time.Duration {
	d := m.Model.SampleLatency(src)
	if m.now() >= m.at {
		d *= 2
	}
	return d
}

// TestServeAdaptTracksDriftStep replays, on the frozen clock, a trace whose
// service times step to 2x mid-run, with adaptation on. The runtime must feed
// the adaptation layer one latency sample per executed task, and the step
// must show as a latency-drift event and an inflated planning cost.
//
// The trace comes in bursts sized to adapt's constants: a burst of 12
// arrivals, 120ms apart, every 2.4s. A 2s detector window opens at a
// burst's first sample and closes at the next burst's, so each window holds
// one burst: 12 samples on the fast model and 10 on the others, past the 8
// a window needs to be judged. Four bursts land 40 or more samples per
// model before the step at 11.5s, past the 32 that engage inflation; three
// after it give the two out-of-band windows a latency-drift event needs,
// and enough 2x samples to move the 0.9 quantile.
func TestServeAdaptTracksDriftStep(t *testing.T) {
	seed := uint64(55)
	ds := dataset.TextMatching(dataset.Config{N: 1200, Seed: seed})
	a := pipeline.Build(pipeline.Config{Dataset: ds, Models: driftModels(seed), PredictorEpochs: 25, Seed: seed})

	const (
		burst   = 12
		bursts  = 7
		spacing = 120 * time.Millisecond
		period  = 2400 * time.Millisecond
	)
	tr := &trace.Trace{}
	for i := 0; i < burst*bursts; i++ {
		at := time.Duration(i/burst+1)*period + time.Duration(i%burst)*spacing
		tr.Arrivals = append(tr.Arrivals, trace.Arrival{SampleIdx: i, At: at, Deadline: at + 300*time.Millisecond})
	}
	// Step at 11.5s: between the fourth burst (9.6s-10.92s, completions by
	// ~10.97s) and the fifth (12s).
	var s *Server
	drifting := make([]model.Model, len(a.Ensemble.Models))
	for k, m := range a.Ensemble.Models {
		drifting[k] = steppedModel{Model: m, at: 11500 * time.Millisecond, now: func() time.Duration { return s.Now() }}
	}
	s = New(Config{
		Ensemble:  ensemble.New(a.Ensemble.Task, drifting, a.Ensemble.Agg, a.Ensemble.Weights),
		Scheduler: &core.DP{Delta: 0.01},
		Rewarder:  a.Profile,
		Estimator: a.Predictor,
		TimeScale: 0.25,
		Seed:      1,
		Adapt:     adapt.Config{Enable: true},
	})
	for i, res := range replay(t, s, tr, a.Serve) {
		if res.Missed {
			t.Errorf("query %d missed its roomy deadline", i)
		}
	}
	st := s.Stats()
	snap := st.Adapt
	if snap.LatencyEvents == 0 {
		t.Error("the 2x step fired no latency drift event")
	}
	inflated := false
	for k, m := range snap.Models {
		if ran := st.Models[k].Executed; m.Samples != ran {
			t.Errorf("model %d: %d latency samples for %d executed tasks", k, m.Samples, ran)
		}
		if m.Inflation > 1.3 {
			inflated = true
		}
	}
	if !inflated {
		t.Error("no model's inflation tracked the 2x drift step; adaptation never engaged")
	}
}
