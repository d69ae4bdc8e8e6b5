// Command schemble-drift soaks the online-adaptation layer under a
// drifting workload and emits the machine-readable BENCH_drift.json
// drift-resilience file the ROADMAP tracks.
//
// The soak composes the two drift modes the adaptation layer exists for:
// a latency ramp (every model slows to -drift-factor times its profiled
// speed across the middle of the horizon, the thermal-throttling /
// co-tenant-pressure shape) and a difficulty shift (the arrival mix
// moves from the pool's easy tail to its hard tail, staling the frozen
// score calibration). The same seeded trace runs twice through the
// deterministic simulator — once with frozen profiles as the reference,
// once with adaptation on — so every delta in the report is attributable
// to adaptation alone. One invariant is asserted on every run, so the
// target doubles as an adaptation-effectiveness gate:
//
//   - adaptation earns its keep: the adapt-on deadline-miss rate stays
//     strictly below the frozen-profile reference under drift.
//
// Usage:
//
//	schemble-drift [-quick] [-out BENCH_drift.json]
//	               [-baseline BENCH_drift.json] [-drift-factor 1.8]
//
// -quick shrinks the pipeline fit and the soak horizon for CI. When
// -baseline names an existing result file, the run fails (exit 1) if the
// adapt-on DMR rises more than -max-dmr-rise above the baseline; the
// baseline is read before -out is rewritten, so both may name the same
// file. The output contains no wall-clock timestamps: two runs of the
// same tree produce identical files.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"schemble/internal/adapt"
	"schemble/internal/core"
	"schemble/internal/dataset"
	"schemble/internal/engine"
	"schemble/internal/metrics"
	"schemble/internal/model"
	"schemble/internal/pipeline"
	"schemble/internal/sim"
	"schemble/internal/trace"
)

// report is the BENCH_drift.json schema ("schemble-drift/v1").
type report struct {
	Schema string `json:"schema"`
	Go     string `json:"go"`
	Quick  bool   `json:"quick"`
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
	RecalEpochs   uint64    `json:"recal_epochs"`
	RecalSwaps    uint64    `json:"recal_swaps"`
}

// run is one simulator pass's outcome aggregates.
type run struct {
	ServedPerSec float64 `json:"served_per_sec"`
	DMR          float64 `json:"dmr"`
	Accuracy     float64 `json:"accuracy"`
	Missed       int     `json:"missed"`
	Rejected     int     `json:"rejected"`
}

func summarizeRun(recs []metrics.Record, horizon time.Duration) run {
	s := metrics.Summarize(recs)
	return run{
		ServedPerSec: float64(s.N-s.Missed-s.Rejected) / horizon.Seconds(),
		DMR:          s.DMR,
		Accuracy:     s.Accuracy,
		Missed:       s.Missed,
		Rejected:     s.Rejected,
	}
}

func main() {
	out := flag.String("out", "BENCH_drift.json", "output path (- for stdout)")
	quick := flag.Bool("quick", false, "shrink the pipeline fit and soak horizon for CI")
	baselinePath := flag.String("baseline", "", "compare against this prior BENCH_drift.json and fail on DMR regression")
	maxDMRRise := flag.Float64("max-dmr-rise", 0.05, "largest tolerated adapt-on DMR rise vs the baseline (wide enough to absorb the quick-vs-full fixture gap)")
	driftFactor := flag.Float64("drift-factor", 1.8, "latency multiplier every model ramps to mid-soak")
	rateFactor := flag.Float64("rate-factor", 0.9, "offered load as a fraction of the pre-drift bottleneck capacity")
	seed := flag.Uint64("seed", 7, "seed")
	flag.Parse()

	pipeCfg := pipeline.Config{
		Dataset: dataset.TextMatching(dataset.Config{N: 4000, Seed: *seed}),
		Models:  model.TextMatchingModels(*seed),
		Seed:    *seed,
	}
	horizon := 120 * time.Second
	if *quick {
		pipeCfg.Dataset = dataset.TextMatching(dataset.Config{N: 1200, Seed: *seed})
		pipeCfg.PredictorEpochs = 25
		horizon = 30 * time.Second
	}
	fmt.Fprintln(os.Stderr, "fitting pipeline...")
	arts := pipeline.Build(pipeCfg)

	// Pre-drift bottleneck capacity with one replica per model: the
	// admission controller's own default. The ramp shrinks the real
	// capacity by drift-factor mid-run, so an offered rate below 1x still
	// saturates the fleet once drift sets in.
	capacity := engine.BottleneckCapacity(arts.Ensemble.Models, nil)
	rate := *rateFactor * capacity
	n := int(rate * horizon.Seconds())
	rampStart := horizon / 5
	rampEnd := horizon * 7 / 10

	// Easy/hard pools by predicted difficulty: the bottom and top thirds
	// of the serving pool. The arrival mix shifts from all-easy to
	// all-hard across the ramp window, staling the frozen calibration.
	type scored struct {
		idx int
		s   float64
	}
	ranked := make([]scored, len(arts.Serve))
	for i, s := range arts.Serve {
		ranked[i] = scored{idx: i, s: arts.Predictor.Predict(s)}
	}
	sort.Slice(ranked, func(a, b int) bool {
		//schemble:floateq-ok exact-inequality tie-break: equal predictions fall through to the deterministic index order
		if ranked[a].s != ranked[b].s {
			return ranked[a].s < ranked[b].s
		}
		return ranked[a].idx < ranked[b].idx
	})
	third := len(ranked) / 3
	easy := make([]int, third)
	hard := make([]int, third)
	for i := 0; i < third; i++ {
		easy[i] = ranked[i].idx
		hard[i] = ranked[len(ranked)-third+i].idx
	}

	tr := trace.DifficultyShift(trace.DifficultyShiftConfig{
		RatePerSec: rate, N: n, Samples: arts.Serve,
		EasyIdx: easy, HardIdx: hard,
		ShiftStart: rampStart, ShiftEnd: rampEnd,
		Deadline: trace.ConstantDeadline(400 * time.Millisecond),
		Seed:     *seed,
	})
	drift := trace.RampDrift(rampStart, rampEnd, 1, *driftFactor)
	simCfg := func(a adapt.Config) sim.Config {
		return sim.Config{
			Ensemble:   arts.Ensemble,
			Refs:       arts.Refs,
			Scorer:     arts.Scorer,
			Scheduler:  &core.DP{Delta: 0.01},
			Rewarder:   arts.Profile,
			Estimator:  arts.Predictor,
			ScoreDelay: arts.Predictor.InferCost,
			Drift:      drift,
			Adapt:      a,
			Seed:       *seed,
		}
	}
	adaptCfg := adapt.Config{Enable: true, Scorer: arts.DisScorer}

	fmt.Fprintf(os.Stderr,
		"soaking %d arrivals at %.1f q/s (%.2fx capacity), drift ramp 1.0->%.2f over [%v, %v], frozen profiles...\n",
		n, rate, *rateFactor, *driftFactor, rampStart, rampEnd)
	frozenRecs, _ := sim.RunStats(simCfg(adapt.Config{}), tr, arts.Serve)
	fmt.Fprintln(os.Stderr, "soaking the identical trace with adaptation on...")
	adaptRecs, _, snap := sim.RunAdapt(simCfg(adaptCfg), tr, arts.Serve)

	rep := report{
		Schema:         "schemble-drift/v1",
		Go:             runtime.Version(),
		Quick:          *quick,
		CapacityPerSec: capacity,
		OfferedRate:    rate,
		HorizonSec:     horizon.Seconds(),
		Arrivals:       n,
		DriftFactor:    *driftFactor,
		RampStartSec:   rampStart.Seconds(),
		RampEndSec:     rampEnd.Seconds(),
		Frozen:         summarizeRun(frozenRecs, horizon),
		Adapt:          summarizeRun(adaptRecs, horizon),
	}
	if snap != nil {
		rep.Inflation = make([]float64, len(snap.Models))
		for k, m := range snap.Models {
			rep.Inflation[k] = m.Inflation
		}
		rep.LatencyEvents = snap.LatencyEvents
		rep.ScoreEvents = snap.ScoreEvents
		rep.RecalEpochs = snap.RecalEpochs
		rep.RecalSwaps = snap.RecalSwaps
	}
	fmt.Fprintf(os.Stderr,
		"frozen: %.1f served/s dmr %.3f acc %.3f\nadapt:  %.1f served/s dmr %.3f acc %.3f (inflation %v, %d drift events, %d/%d recal swaps)\n",
		rep.Frozen.ServedPerSec, rep.Frozen.DMR, rep.Frozen.Accuracy,
		rep.Adapt.ServedPerSec, rep.Adapt.DMR, rep.Adapt.Accuracy,
		rep.Inflation, rep.LatencyEvents+rep.ScoreEvents, rep.RecalSwaps, rep.RecalEpochs)

	failed := false
	if rep.Adapt.DMR >= rep.Frozen.DMR {
		fmt.Fprintf(os.Stderr, "FAIL: adapt-on DMR %.3f not below frozen reference %.3f\n",
			rep.Adapt.DMR, rep.Frozen.DMR)
		failed = true
	}

	// Regression gate against a committed baseline (read before -out is
	// rewritten, so both may name the same file).
	if *baselinePath != "" {
		if raw, err := os.ReadFile(*baselinePath); err == nil {
			var base report
			if err := json.Unmarshal(raw, &base); err != nil {
				fmt.Fprintf(os.Stderr, "baseline %s unreadable: %v\n", *baselinePath, err)
			} else if rep.Adapt.DMR > base.Adapt.DMR+*maxDMRRise {
				fmt.Fprintf(os.Stderr, "FAIL: adapt-on DMR regressed %.3f -> %.3f (tolerance %.3f)\n",
					base.Adapt.DMR, rep.Adapt.DMR, *maxDMRRise)
				failed = true
			}
		} else {
			fmt.Fprintf(os.Stderr, "no baseline at %s; skipping regression gate\n", *baselinePath)
		}
	}

	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if failed {
		os.Exit(1)
	}
}
