// Command schemble-lab replays one traffic shape through the shipped runtime
// on the virtual clock (serve.Replay) for a range of seeds and prints one
// JSON line per seed: what a change to the planner or the runtime does to
// on-time share, accuracy, latency per class and the early-task path,
// measured over many seeds in seconds of wall time. scripts/lab_pairs.sh
// runs it in a parent tree and in the change's and compares the two.
//
// Usage:
//
//	schemble-lab -shape burst|flash|steady [-seed 9001] [-n 100]
//
// The shapes:
//
//	burst   MMPP 12.5/100 req/s held 2 s/1 s, deadlines uniform in
//	        150 ms-1 s, 2,000 arrivals, zero-config runtime;
//	flash   a 10 req/s background of three classes (gold, silver, bronze
//	        at 0.2/0.3/0.5) whose crowd of bronze arrivals holds a 5x peak
//	        for 38 s, about 1,900 arrivals, with classes, admission, the
//	        result cache and online adaptation on, as the bench's
//	        features-flash workload sets them;
//	steady  Poisson 8 req/s, 150 ms deadlines, 1,000 arrivals,
//	        zero-config runtime.
//
// Every run uses the shipped deployment (text matching, N 4000, seed 7) and
// the runtime seed 7; the lab seed drives the traffic alone. Latencies are
// virtual milliseconds. A run is a pure function of the tree and the seed,
// so two trees that make the same decisions print the same lines.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"time"

	"schemble/internal/cluster"
	"schemble/internal/core"
	"schemble/internal/dataset"
	"schemble/internal/model"
	"schemble/internal/pipeline"
	"schemble/internal/qos"
	"schemble/internal/rcache"
	"schemble/internal/rng"
	"schemble/internal/serve"
	"schemble/internal/trace"
)

// deploySeed is the shipped deployment's seed and the runtime's.
const deploySeed = 7

// flashClasses and flashShares are the bench's features-flash mixture.
var (
	flashClasses = []qos.Class{
		{Name: "gold", Priority: 2, Deadline: 400 * time.Millisecond, Weight: 3},
		{Name: "silver", Priority: 1, Deadline: 400 * time.Millisecond, Weight: 2},
		{Name: "bronze", Priority: 0, Deadline: 600 * time.Millisecond, Weight: 1},
	}
	flashShares = []float64{0.2, 0.3, 0.5}
)

// The result cache as features-flash configures it.
const (
	cacheRegions       = 64
	cacheCapacity      = 1024
	cacheDifficultyMax = 0.5
)

func main() {
	shape := flag.String("shape", "flash", "traffic shape: burst, flash or steady")
	first := flag.Uint64("seed", 9001, "first seed")
	n := flag.Int("n", 100, "number of seeds")
	flag.Parse()
	if err := run(os.Stdout, *shape, *first, *n); err != nil {
		fmt.Fprintf(os.Stderr, "schemble-lab: %v\n", err)
		os.Exit(2)
	}
}

// run prints one line per seed of first..first+n-1.
func run(w io.Writer, shape string, first uint64, n int) error {
	l, err := newLab(shape)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	for seed := first; seed < first+uint64(n); seed++ {
		if err := enc.Encode(l.replay(seed)); err != nil {
			return err
		}
	}
	return nil
}

// lab is one shape over the shipped deployment.
type lab struct {
	shape string
	arts  *pipeline.Artifacts
	keyer rcache.Keyer // flash only
}

func newLab(shape string) (*lab, error) {
	if shape != "burst" && shape != "flash" && shape != "steady" {
		return nil, fmt.Errorf("unknown -shape %q (want burst, flash or steady)", shape)
	}
	l := &lab{shape: shape, arts: pipeline.Build(pipeline.Config{
		Dataset: dataset.TextMatching(dataset.Config{N: 4000, Seed: deploySeed}),
		Models:  model.TextMatchingModels(deploySeed),
		Seed:    deploySeed,
	})}
	if shape == "flash" {
		// The keyer the bench fits for its features workloads.
		points := make([][]float64, len(l.arts.Serve))
		for i, s := range l.arts.Serve {
			points[i] = s.Features
		}
		km, err := cluster.Fit(points, cacheRegions, 30, rng.New(deploySeed^0xcac4e))
		if err != nil {
			return nil, fmt.Errorf("fitting the cache keyer: %w", err)
		}
		l.keyer = rcache.CentroidKeyer{KM: km}
	}
	return l, nil
}

// uniformDeadline draws each relative deadline uniformly from [min, max).
type uniformDeadline struct{ min, max time.Duration }

func (u uniformDeadline) Relative(_ *dataset.Sample, src *rng.Source) time.Duration {
	return time.Duration(src.Uniform(float64(u.min), float64(u.max)))
}

// traffic is the shape's trace at seed.
func (l *lab) traffic(seed uint64) *trace.Trace {
	switch l.shape {
	case "burst":
		return trace.MMPP(trace.MMPPConfig{
			Rates: []float64{12.5, 100}, MeanHold: []time.Duration{2 * time.Second, time.Second},
			N: 2000, Samples: l.arts.Serve, Deadline: uniformDeadline{150 * time.Millisecond, time.Second}, Seed: seed,
		})
	case "steady":
		return trace.Poisson(trace.PoissonConfig{
			RatePerSec: 8, N: 1000, Samples: l.arts.Serve,
			Deadline: trace.ConstantDeadline(150 * time.Millisecond), Seed: seed,
		})
	}
	mix := make([]trace.ClassMix, len(flashClasses))
	for i, c := range flashClasses {
		mix[i] = trace.ClassMix{Name: c.Name, Share: flashShares[i], Deadline: c.Deadline}
	}
	const hold = 38 * time.Second
	return trace.FlashCrowd(trace.FlashCrowdConfig{
		BackgroundRate: 10, Classes: mix, PeakFactor: 5,
		CrowdStart: 1, RampUp: 1, Hold: hold, RampDown: 1,
		Horizon: hold, Samples: l.arts.Serve, Seed: seed,
	})
}

// config is the shape's runtime.
func (l *lab) config() serve.Config {
	cfg := serve.Config{
		Ensemble:  l.arts.Ensemble,
		Scheduler: &core.DP{Delta: 0.01},
		Rewarder:  l.arts.Profile,
		Estimator: l.arts.Predictor,
		TimeScale: 1,
		Seed:      deploySeed,
	}
	if l.shape == "flash" {
		cfg.Classes = flashClasses
		cfg.Cache = rcache.Config{Keyer: l.keyer, Capacity: cacheCapacity, DifficultyMax: cacheDifficultyMax}
		cfg.Adapt.Enable = true
	}
	return cfg
}

// line is one seed's output.
type line struct {
	Shape    string `json:"shape"`
	Seed     uint64 `json:"seed"`
	Arrivals int    `json:"arrivals"`
	// Metrics holds each figure with the direction that is better, or none
	// for a count that only describes the run.
	Metrics map[string]metric `json:"metrics"`
}

type metric struct {
	Value  float64 `json:"value"`
	Better string  `json:"better,omitempty"`
}

// replay runs the shape at seed and reduces its results to a line.
func (l *lab) replay(seed uint64) line {
	tr := l.traffic(seed)
	s := serve.New(l.config())
	results := serve.Replay(s, tr, l.arts.Serve)
	st := s.Stats()

	out := line{Shape: l.shape, Seed: seed, Arrivals: len(results), Metrics: map[string]metric{}}
	set := func(name string, v float64, better string) { out.Metrics[name] = metric{v, better} }

	var ontime, agree, cached, models float64 // models: aggregated over non-cached answers
	var all, fresh []float64                  // virtual ms of answered queries, and of those not cached
	byClass := map[string][]float64{}         // non-cached answers per class
	classModels := map[string]float64{}
	for i, res := range results {
		if res.Missed {
			continue
		}
		a := tr.Arrivals[i]
		ontime++
		agree += l.arts.Scorer.Score(res.Output, l.arts.Refs[l.arts.Serve[a.SampleIdx].ID])
		ms := float64(res.Latency) / float64(time.Millisecond)
		all = append(all, ms)
		if res.Cached {
			cached++
			continue
		}
		fresh = append(fresh, ms)
		models += float64(res.Subset.Size())
		if a.Class != "" {
			byClass[a.Class] = append(byClass[a.Class], ms)
			classModels[a.Class] += float64(res.Subset.Size())
		}
	}
	n := float64(len(results))
	set("ontime_share", ontime/n, "higher")
	set("accuracy", agree/n, "higher")
	set("cached_share", cached/n, "")
	set("p50_ms", quantile(all, 0.50), "lower")
	set("p95_ms", quantile(all, 0.95), "lower")
	set("noncached_p50_ms", quantile(fresh, 0.50), "lower")
	set("noncached_p95_ms", quantile(fresh, 0.95), "lower")
	set("subset_mean", ratio(models, len(fresh)), "")
	for c, lat := range byClass {
		set(c+"_p50_ms", quantile(lat, 0.50), "lower")
		set(c+"_p95_ms", quantile(lat, 0.95), "lower")
		set(c+"_subset_mean", ratio(classModels[c], len(lat)), "")
	}
	set("early_tasks", float64(st.EarlyTasks), "")
	set("early_kept", float64(st.EarlyUsed), "")
	set("early_dropped", float64(st.EarlyTasks-st.EarlyUsed), "lower")
	set("part_commits", float64(st.PartCommits), "")
	return out
}

// quantile is the nearest-rank q-quantile of v (0 when v is empty); it
// sorts v.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	slices.Sort(v)
	rank := int(math.Ceil(q * float64(len(v))))
	return v[min(max(rank, 1), len(v))-1]
}

func ratio(sum float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
