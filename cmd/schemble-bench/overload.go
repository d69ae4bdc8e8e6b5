package main

// The overload scenario soaks the classed serving stack at 1x, 2x and 5x
// of the deployment's bottleneck capacity and writes BENCH_overload.json.
//
// Each tier replays a steady three-class mixture (gold/silver/bronze with
// descending priority) on the classed runtime, admission control and the
// degradation ladder on, then reports the runtime's own per-class SLO
// attainment, shed rate, deadline-miss rate and time at each service level
// plus aggregate goodput.
// The gate asserts on every run that sheds are priority-ordered at every
// tier and that the gold class's SLO attainment at 5x stays above
// goldFloor; against a baseline it fails any tier whose gold SLO drops
// more than maxSLODrop or whose goodput falls more than maxGoodputDrop
// below it. Goodput is what a controller that sheds or queues traffic the
// fleet had room for gives up, and the gold SLO alone does not see it.

import (
	"fmt"
	"os"
	"time"

	"schemble/internal/dataset"
	"schemble/internal/qos"
	"schemble/internal/rng"
	"schemble/internal/serve"
	"schemble/internal/trace"
)

const (
	schemaOverload = "schemble-overload/v1"
	maxSLODrop     = 0.05 // per tier, absolute gold-SLO drop vs the baseline
	maxGoodputDrop = 0.10 // per tier, relative goodput drop vs the baseline
	goldFloor      = 0.85 // gold SLO attainment at 5x
	shedTolerance  = 0.02 // token-bucket burst noise in the shed order
)

// overloadReport is the BENCH_overload.json schema.
type overloadReport struct {
	header
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
	// TimeAtLevelS is the virtual seconds the class spent at each service
	// level (full, capped, shed), from the runtime's ClassStats.TimeAtLevel.
	TimeAtLevelS map[string]float64 `json:"time_at_level_s"`
}

// benchClasses is the fixed three-tier mixture every run uses, declared
// highest priority first.
var benchClasses = []qos.Class{
	{Name: "gold", Priority: 2, Deadline: 400 * time.Millisecond, Weight: 3},
	{Name: "silver", Priority: 1, Deadline: 400 * time.Millisecond, Weight: 2},
	{Name: "bronze", Priority: 0, Deadline: 600 * time.Millisecond, Weight: 1},
}

// classShares is each class's fraction of offered traffic (most of the
// overload arrives as bronze, the realistic flash-crowd shape).
var classShares = []float64{0.2, 0.3, 0.5}

func runOverload(seed uint64) (overloadReport, error) {
	d := fit(seed)
	classes := benchClasses
	rep := overloadReport{
		header:         newHeader(schemaOverload),
		CapacityPerSec: d.capacity,
		HorizonSec:     d.horizon.Seconds(),
	}
	for _, load := range []float64{1, 2, 5} {
		rate := load * d.capacity
		tr := steadyClassedTrace(rate, classes, d.horizon, d.arts.Serve, seed)
		cfg := d.serveConfig()
		cfg.Classes = classes
		s := serve.New(cfg)
		serve.Replay(s, tr, d.arts.Serve)
		t := summarizeTier(load, rate, tr.N(), s.Stats().Classes, d.horizon)
		rep.Tiers = append(rep.Tiers, t)
		fmt.Fprintf(os.Stderr, "load %.0fx (%.1f q/s, %d arrivals): goodput %.1f/s\n",
			load, rate, t.Arrivals, t.GoodputPerSec)
		for _, cs := range t.Classes {
			fmt.Fprintf(os.Stderr, "  %-7s slo %.3f shed %.3f dmr %.3f (n=%d)\n",
				cs.Name, cs.SLOAttainment, cs.ShedRate, cs.DMR, cs.Submitted)
		}
	}
	return rep, nil
}

func gateOverload(rep overloadReport, base *overloadReport) []string {
	var bad []string
	// A class may never be shed harder than a lower-priority one.
	for _, t := range rep.Tiers {
		for i := 0; i+1 < len(t.Classes); i++ {
			if hi, lo := t.Classes[i], t.Classes[i+1]; hi.ShedRate > lo.ShedRate+shedTolerance {
				bad = append(bad, fmt.Sprintf("%s shed harder (%.3f) than lower-priority %s (%.3f) at %.0fx",
					hi.Name, hi.ShedRate, lo.Name, lo.ShedRate, t.Load))
			}
		}
	}
	// The top class survives the 5x tier.
	if n := len(rep.Tiers); n > 0 && len(rep.Tiers[n-1].Classes) > 0 {
		if gold := rep.Tiers[n-1].Classes[0].SLOAttainment; gold < goldFloor {
			bad = append(bad, fmt.Sprintf("gold SLO attainment %.3f at 5x below floor %.3f", gold, goldFloor))
		}
	}
	if base == nil {
		return bad
	}
	for i, bt := range base.Tiers {
		if i >= len(rep.Tiers) || len(bt.Classes) == 0 || len(rep.Tiers[i].Classes) == 0 {
			continue
		}
		if cur, prev := rep.Tiers[i].Classes[0].SLOAttainment, bt.Classes[0].SLOAttainment; cur < prev-maxSLODrop {
			bad = append(bad, fmt.Sprintf("gold SLO attainment at %.0fx regressed %.3f -> %.3f (tolerance %.3f)",
				bt.Load, prev, cur, maxSLODrop))
		}
		if cur, prev := rep.Tiers[i].GoodputPerSec, bt.GoodputPerSec; cur < prev*(1-maxGoodputDrop) {
			bad = append(bad, fmt.Sprintf("goodput at %.0fx regressed %.1f/s -> %.1f/s (tolerance %.0f%%)",
				bt.Load, prev, cur, 100*maxGoodputDrop))
		}
	}
	return bad
}

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

// summarizeTier folds the runtime's per-class counters into the tier's
// stats.
func summarizeTier(load, rate float64, arrivals int, classes []serve.ClassStats, horizon time.Duration) tier {
	t := tier{Load: load, OfferedRate: rate, Arrivals: arrivals}
	for _, c := range classes {
		cs := classStats{
			Name: c.Name, Priority: c.Priority, Submitted: int(c.Submitted),
			Served: int(c.Served), Degraded: int(c.Degraded), Missed: int(c.Missed), Rejected: int(c.Rejected),
			SLOAttainment: c.SLOAttainment, TimeAtLevelS: map[string]float64{},
		}
		for l, d := range c.TimeAtLevel {
			cs.TimeAtLevelS[qos.Level(l).String()] = d.Seconds()
		}
		if cs.Submitted > 0 {
			cs.ShedRate = float64(cs.Rejected) / float64(cs.Submitted)
		}
		if accepted := cs.Submitted - cs.Rejected; accepted > 0 {
			cs.DMR = float64(cs.Missed) / float64(accepted)
		}
		t.GoodputPerSec += float64(c.Served+c.Degraded) / horizon.Seconds()
		t.Classes = append(t.Classes, cs)
	}
	return t
}
