package main

// The drift scenario soaks the online-adaptation layer under a drifting
// workload and writes BENCH_drift.json.
//
// The soak composes the two drift modes the adaptation layer exists for:
// a latency ramp (every model slows to driftFactor times its profiled
// speed across the middle of the horizon, the thermal-throttling /
// co-tenant-pressure shape) and a difficulty shift (the arrival mix
// moves from the pool's easy tail to its hard tail, which the score-drift
// detector flags). The same seeded trace replays twice on the runtime —
// once with frozen profiles as the reference, once with adaptation on — so
// every delta in the report is attributable to adaptation alone. The ramp
// is the models' own (rampModel), so the runtime serves it as it would a
// fleet that slows down. The gate asserts on every run that the adapt-on
// deadline-miss rate stays strictly below the frozen reference's; against
// a baseline it fails an adapt-on DMR rise of more than maxDMRRise.

import (
	"fmt"
	"os"
	"sort"
	"time"

	"schemble/internal/adapt"
	"schemble/internal/ensemble"
	"schemble/internal/model"
	"schemble/internal/rng"
	"schemble/internal/serve"
	"schemble/internal/trace"
)

const (
	schemaDrift = "schemble-drift/v1"
	maxDMRRise  = 0.05 // adapt-on DMR vs the baseline; absorbs what a change to the runtime moves
	driftFactor = 1.8  // latency multiplier every model ramps to mid-soak
	rateFactor  = 0.9  // offered load over pre-drift bottleneck capacity
	// driftDeadline is every query's budget: tight enough that profiles
	// frozen at the pre-drift speed still plan late tasks once the ramp is
	// on, which is what the gate compares adaptation against. At 400 ms
	// the tolerance layer and the early tasks left frozen profiles no
	// misses on some seeds, a tie the strict gate cannot pass.
	driftDeadline = 200 * time.Millisecond
)

// driftReport is the BENCH_drift.json schema.
type driftReport struct {
	header
	// CapacityPerSec is the derived pre-drift bottleneck service rate;
	// the soak offers OfferedRate against a fleet that slows to
	// DriftFactor times its profiled latency mid-run.
	CapacityPerSec float64 `json:"capacity_per_sec"`
	OfferedRate    float64 `json:"offered_rate_per_sec"`
	HorizonSec     float64 `json:"horizon_sec"`
	Arrivals       int     `json:"arrivals"`
	DriftFactor    float64 `json:"drift_factor"`
	// RampStartSec/RampEndSec bound the latency ramp; the difficulty
	// shift runs over the same window.
	RampStartSec float64 `json:"ramp_start_sec"`
	RampEndSec   float64 `json:"ramp_end_sec"`

	// Frozen is the reference run planning with frozen profiles; Adapt
	// is the adaptation-on run over the identical trace and seed.
	Frozen run `json:"frozen"`
	Adapt  run `json:"adapt"`

	// Adaptation-layer aggregates from the adapt-on run.
	Inflation     []float64 `json:"inflation"`
	LatencyEvents uint64    `json:"latency_events"`
	ScoreEvents   uint64    `json:"score_events"`
}

func runDrift(seed uint64) (driftReport, error) {
	d := fit(seed)
	// The ramp shrinks the real capacity by driftFactor mid-run, so an
	// offered rate below 1x still saturates the fleet once drift sets in.
	rate := rateFactor * d.capacity
	n := int(rate * d.horizon.Seconds())
	rampStart := d.horizon / 5
	rampEnd := d.horizon * 7 / 10

	// Easy/hard pools by predicted difficulty: the bottom and top thirds
	// of the serving pool, ties in pool order. The arrival mix shifts from
	// all-easy to all-hard across the ramp window.
	ranked := make([]int, len(d.arts.Serve))
	scores := make([]float64, len(d.arts.Serve))
	for i, s := range d.arts.Serve {
		ranked[i], scores[i] = i, d.arts.Predictor.Predict(s)
	}
	sort.SliceStable(ranked, func(a, b int) bool { return scores[ranked[a]] < scores[ranked[b]] })
	third := len(ranked) / 3
	easy, hard := ranked[:third], ranked[len(ranked)-third:]

	tr := trace.DifficultyShift(trace.DifficultyShiftConfig{
		RatePerSec: rate, N: n, Samples: d.arts.Serve,
		EasyIdx: easy, HardIdx: hard,
		ShiftStart: rampStart, ShiftEnd: rampEnd,
		Deadline: trace.ConstantDeadline(driftDeadline),
		Seed:     seed,
	})
	drifting := func(a adapt.Config) ([]serve.Result, serve.Stats) {
		var s *serve.Server
		e := d.arts.Ensemble
		models := make([]model.Model, len(e.Models))
		for k, m := range e.Models {
			models[k] = rampModel{Model: m, start: rampStart, end: rampEnd, now: func() time.Duration { return s.Now() }}
		}
		cfg := d.serveConfig()
		cfg.Ensemble = ensemble.New(e.Task, models, e.Agg, e.Weights)
		cfg.Adapt = a
		s = serve.New(cfg)
		return serve.Replay(s, tr, d.arts.Serve), s.Stats()
	}

	fmt.Fprintf(os.Stderr,
		"soaking %d arrivals at %.1f q/s (%.2fx capacity), drift ramp 1.0->%.2f over [%v, %v], frozen profiles...\n",
		n, rate, rateFactor, driftFactor, rampStart, rampEnd)
	frozenRes, _ := drifting(adapt.Config{})
	fmt.Fprintln(os.Stderr, "soaking the identical trace with adaptation on...")
	adaptRes, st := drifting(adapt.Config{Enable: true})
	snap := st.Adapt

	rep := driftReport{
		header:         newHeader(schemaDrift),
		CapacityPerSec: d.capacity,
		OfferedRate:    rate,
		HorizonSec:     d.horizon.Seconds(),
		Arrivals:       n,
		DriftFactor:    driftFactor,
		RampStartSec:   rampStart.Seconds(),
		RampEndSec:     rampEnd.Seconds(),
		Frozen:         d.summarize(tr, frozenRes),
		Adapt:          d.summarize(tr, adaptRes),
	}
	rep.Inflation = make([]float64, len(snap.Models))
	for k, m := range snap.Models {
		rep.Inflation[k] = m.Inflation
	}
	rep.LatencyEvents = snap.LatencyEvents
	rep.ScoreEvents = snap.ScoreEvents
	fmt.Fprintf(os.Stderr,
		"frozen: %.1f served/s dmr %.3f acc %.3f\nadapt:  %.1f served/s dmr %.3f acc %.3f (inflation %v, %d drift events)\n",
		rep.Frozen.ServedPerSec, rep.Frozen.DMR, rep.Frozen.Accuracy,
		rep.Adapt.ServedPerSec, rep.Adapt.DMR, rep.Adapt.Accuracy,
		rep.Inflation, rep.LatencyEvents+rep.ScoreEvents)
	return rep, nil
}

// rampModel is a model slowing down: each latency it draws is its model's
// times the ramp's multiplier at now, the server's virtual instant.
type rampModel struct {
	model.Model
	start, end time.Duration
	now        func() time.Duration
}

func (m rampModel) SampleLatency(src *rng.Source) time.Duration {
	return time.Duration(float64(m.Model.SampleLatency(src)) * m.multiplier(m.now()))
}

// multiplier is 1 up to start and driftFactor from end, linear between.
func (m rampModel) multiplier(t time.Duration) float64 {
	switch {
	case t <= m.start:
		return 1
	case t >= m.end:
		return driftFactor
	default:
		return 1 + (driftFactor-1)*float64(t-m.start)/float64(m.end-m.start)
	}
}

func gateDrift(rep driftReport, base *driftReport) []string {
	var bad []string
	if rep.Adapt.DMR >= rep.Frozen.DMR {
		bad = append(bad, fmt.Sprintf("adapt-on DMR %.3f not below frozen reference %.3f",
			rep.Adapt.DMR, rep.Frozen.DMR))
	}
	if base != nil && rep.Adapt.DMR > base.Adapt.DMR+maxDMRRise {
		bad = append(bad, fmt.Sprintf("adapt-on DMR regressed %.3f -> %.3f (tolerance %.3f)",
			base.Adapt.DMR, rep.Adapt.DMR, maxDMRRise))
	}
	return bad
}
