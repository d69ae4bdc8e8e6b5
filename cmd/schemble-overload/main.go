// Command schemble-overload soaks the classed serving stack at 1x, 2x and
// 5x of the deployment's bottleneck capacity and emits the
// machine-readable BENCH_overload.json robustness-trajectory file the
// ROADMAP tracks.
//
// Each tier offers a steady three-class mixture (gold/silver/bronze with
// descending priority) to the deterministic simulator with admission
// control and the degradation ladder enabled, then reports per-class SLO
// attainment, shed rate and deadline-miss rate plus aggregate goodput.
// Two invariants are asserted on every run, so the target doubles as an
// overload-survival gate:
//
//   - sheds are priority-ordered: at every tier, no class is shed harder
//     than a lower-priority class (beyond a small tolerance);
//   - the top class survives: its SLO attainment at 5x stays within the
//     configured floor.
//
// Usage:
//
//	schemble-overload [-quick] [-out BENCH_overload.json]
//	                  [-baseline BENCH_overload.json] [-max-slo-drop 0.05]
//	                  [-max-goodput-drop 0.10]
//
// -quick shrinks the pipeline fit and the soak horizon for CI. When
// -baseline names an existing result file, the run fails (exit 1) if any
// tier's gold-class SLO attainment drops more than -max-slo-drop below
// the baseline, or any tier's aggregate goodput falls more than the
// fraction -max-goodput-drop below it — goodput is what a controller that
// sheds or queues traffic the fleet had room for gives up, and the gold
// SLO alone does not see it; the baseline is read before -out is
// rewritten, so both may name the same file. The output contains no
// wall-clock timestamps: two runs of the same tree produce identical files.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"schemble/internal/core"
	"schemble/internal/dataset"
	"schemble/internal/engine"
	"schemble/internal/metrics"
	"schemble/internal/model"
	"schemble/internal/pipeline"
	"schemble/internal/qos"
	"schemble/internal/rng"
	"schemble/internal/sim"
	"schemble/internal/trace"
)

// report is the BENCH_overload.json schema ("schemble-overload/v1").
type report struct {
	Schema string `json:"schema"`
	Go     string `json:"go"`
	Quick  bool   `json:"quick"`
	// CapacityPerSec is the derived bottleneck service rate the tiers are
	// multiples of.
	CapacityPerSec float64 `json:"capacity_per_sec"`
	HorizonSec     float64 `json:"horizon_sec"`
	Tiers          []tier  `json:"tiers"`
}

type tier struct {
	// Load is the offered-load multiple of capacity (1, 2, 5).
	Load        float64 `json:"load"`
	OfferedRate float64 `json:"offered_rate_per_sec"`
	Arrivals    int     `json:"arrivals"`
	// GoodputPerSec counts in-deadline completions per virtual second.
	GoodputPerSec float64      `json:"goodput_per_sec"`
	Classes       []classStats `json:"classes"`
}

type classStats struct {
	Name      string `json:"name"`
	Priority  int    `json:"priority"`
	Submitted int    `json:"submitted"`
	Served    int    `json:"served"`
	Degraded  int    `json:"degraded"`
	Missed    int    `json:"missed"`
	Rejected  int    `json:"rejected"`
	// SLOAttainment is (Served+Degraded)/(Served+Degraded+Missed) — the
	// fraction of completed outcomes that met the deadline (1 when none
	// completed). ShedRate is Rejected/Submitted; DMR is
	// Missed/(Submitted-Rejected).
	SLOAttainment float64 `json:"slo_attainment"`
	ShedRate      float64 `json:"shed_rate"`
	DMR           float64 `json:"dmr"`
}

// benchClasses is the fixed three-tier mixture every run uses.
func benchClasses() []qos.Class {
	return []qos.Class{
		{Name: "gold", Priority: 2, Deadline: 400 * time.Millisecond, Weight: 3},
		{Name: "silver", Priority: 1, Deadline: 400 * time.Millisecond, Weight: 2},
		{Name: "bronze", Priority: 0, Deadline: 600 * time.Millisecond, Weight: 1},
	}
}

// classShares is each class's fraction of offered traffic (most of the
// overload arrives as bronze, the realistic flash-crowd shape).
var classShares = []float64{0.2, 0.3, 0.5}

// steadyClassedTrace builds one merged Poisson stream at the given
// aggregate rate, assigning each arrival a class by share. Deterministic
// per (rate, horizon, seed).
func steadyClassedTrace(rate float64, classes []qos.Class, horizon time.Duration,
	samples []*dataset.Sample, seed uint64) *trace.Trace {
	src := rng.New(seed ^ 0x0ad5)
	var arrivals []trace.Arrival
	var now time.Duration
	for {
		now += time.Duration(src.Exponential(rate) * float64(time.Second))
		if now >= horizon {
			break
		}
		u := src.Float64()
		ci := len(classes) - 1
		acc := 0.0
		for i, share := range classShares {
			acc += share
			if u < acc {
				ci = i
				break
			}
		}
		arrivals = append(arrivals, trace.Arrival{
			SampleIdx: src.Intn(len(samples)),
			At:        now,
			Deadline:  now + classes[ci].Deadline,
			Class:     classes[ci].Name,
		})
	}
	return &trace.Trace{Arrivals: arrivals, Horizon: horizon}
}

// summarizeTier folds per-query records into the per-class stats.
func summarizeTier(load, rate float64, classes []qos.Class, recs []metrics.Record,
	horizon time.Duration) tier {
	t := tier{Load: load, OfferedRate: rate, Arrivals: len(recs)}
	byName := map[string]*classStats{}
	for _, c := range classes {
		t.Classes = append(t.Classes, classStats{Name: c.Name, Priority: c.Priority})
	}
	for i := range t.Classes {
		byName[t.Classes[i].Name] = &t.Classes[i]
	}
	good := 0
	for _, r := range recs {
		cs := byName[r.Class]
		if cs == nil {
			continue
		}
		cs.Submitted++
		switch {
		case r.Rejected:
			cs.Rejected++
		case r.Missed:
			cs.Missed++
		case r.Degraded:
			cs.Degraded++
			good++
		default:
			cs.Served++
			good++
		}
	}
	t.GoodputPerSec = float64(good) / horizon.Seconds()
	for i := range t.Classes {
		cs := &t.Classes[i]
		cs.SLOAttainment = 1
		if done := cs.Served + cs.Degraded + cs.Missed; done > 0 {
			cs.SLOAttainment = float64(cs.Served+cs.Degraded) / float64(done)
		}
		if cs.Submitted > 0 {
			cs.ShedRate = float64(cs.Rejected) / float64(cs.Submitted)
		}
		if accepted := cs.Submitted - cs.Rejected; accepted > 0 {
			cs.DMR = float64(cs.Missed) / float64(accepted)
		}
	}
	return t
}

func main() {
	out := flag.String("out", "BENCH_overload.json", "output path (- for stdout)")
	quick := flag.Bool("quick", false, "shrink the pipeline fit and soak horizon for CI")
	baselinePath := flag.String("baseline", "", "compare against this prior BENCH_overload.json and fail on SLO regression")
	maxSLODrop := flag.Float64("max-slo-drop", 0.05, "largest tolerated drop in gold-class SLO attainment vs the baseline, per tier")
	maxGoodputDrop := flag.Float64("max-goodput-drop", 0.10, "largest tolerated relative drop in aggregate goodput vs the baseline, per tier")
	goldFloor := flag.Float64("gold-floor", 0.85, "hard floor on gold-class SLO attainment at the 5x tier")
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

	// Bottleneck capacity with one replica per model: the admission
	// controller's own default.
	capacity := engine.BottleneckCapacity(arts.Ensemble.Models, nil)
	classes := benchClasses()

	rep := report{
		Schema:         "schemble-overload/v1",
		Go:             runtime.Version(),
		Quick:          *quick,
		CapacityPerSec: capacity,
		HorizonSec:     horizon.Seconds(),
	}
	failed := false
	for _, load := range []float64{1, 2, 5} {
		rate := load * capacity
		tr := steadyClassedTrace(rate, classes, horizon, arts.Serve, *seed)
		recs := sim.Run(sim.Config{
			Ensemble:   arts.Ensemble,
			Refs:       arts.Refs,
			Scorer:     arts.Scorer,
			Scheduler:  &core.DP{Delta: 0.01},
			Rewarder:   arts.Profile,
			Estimator:  arts.Predictor,
			ScoreDelay: arts.Predictor.InferCost,
			Classes:    classes,
			Seed:       *seed,
		}, tr, arts.Serve)
		t := summarizeTier(load, rate, classes, recs, horizon)
		rep.Tiers = append(rep.Tiers, t)
		fmt.Fprintf(os.Stderr, "load %.0fx (%.1f q/s, %d arrivals): goodput %.1f/s\n",
			load, rate, t.Arrivals, t.GoodputPerSec)
		for _, cs := range t.Classes {
			fmt.Fprintf(os.Stderr, "  %-7s slo %.3f shed %.3f dmr %.3f (n=%d)\n",
				cs.Name, cs.SLOAttainment, cs.ShedRate, cs.DMR, cs.Submitted)
		}
		// Gate: sheds must be priority-ordered — a class may never be shed
		// harder than a lower-priority one (classes are declared
		// highest-priority first; 2% tolerance absorbs bucket-burst noise).
		for i := 0; i+1 < len(t.Classes); i++ {
			if t.Classes[i].ShedRate > t.Classes[i+1].ShedRate+0.02 {
				fmt.Fprintf(os.Stderr, "FAIL: %s shed harder (%.3f) than lower-priority %s (%.3f) at %.0fx\n",
					t.Classes[i].Name, t.Classes[i].ShedRate,
					t.Classes[i+1].Name, t.Classes[i+1].ShedRate, load)
				failed = true
			}
		}
	}
	// Gate: the top class survives the 5x tier.
	last := rep.Tiers[len(rep.Tiers)-1]
	if gold := last.Classes[0].SLOAttainment; gold < *goldFloor {
		fmt.Fprintf(os.Stderr, "FAIL: gold SLO attainment %.3f at 5x below floor %.3f\n",
			gold, *goldFloor)
		failed = true
	}

	// Regression gate against a committed baseline (read before -out is
	// rewritten, so both may name the same file).
	if *baselinePath != "" {
		if raw, err := os.ReadFile(*baselinePath); err == nil {
			var base report
			if err := json.Unmarshal(raw, &base); err != nil {
				fmt.Fprintf(os.Stderr, "baseline %s unreadable: %v\n", *baselinePath, err)
			} else {
				for i, bt := range base.Tiers {
					if i >= len(rep.Tiers) || len(bt.Classes) == 0 {
						continue
					}
					cur, prev := rep.Tiers[i].Classes[0].SLOAttainment, bt.Classes[0].SLOAttainment
					if cur < prev-*maxSLODrop {
						fmt.Fprintf(os.Stderr,
							"FAIL: gold SLO attainment at %.0fx regressed %.3f -> %.3f (tolerance %.3f)\n",
							bt.Load, prev, cur, *maxSLODrop)
						failed = true
					}
					if cur, prev := rep.Tiers[i].GoodputPerSec, bt.GoodputPerSec; cur < prev*(1-*maxGoodputDrop) {
						fmt.Fprintf(os.Stderr,
							"FAIL: goodput at %.0fx regressed %.1f/s -> %.1f/s (tolerance %.0f%%)\n",
							bt.Load, prev, cur, 100**maxGoodputDrop)
						failed = true
					}
				}
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
