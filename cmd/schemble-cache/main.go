// Command schemble-cache soaks the difficulty-gated result cache under a
// Zipf-popularity query stream at twice the deployment's bottleneck
// capacity and emits the machine-readable BENCH_cache.json
// cache-trajectory file the ROADMAP tracks.
//
// The same seeded trace runs twice through the deterministic simulator —
// once cache-off as the reference, once cache-on — so every delta in the
// report is attributable to the cache alone. Two invariants are asserted
// on every run, so the target doubles as a cache-effectiveness gate:
//
//   - the cache earns its keep: the hit rate over admitted lookups stays
//     above the -min-hit-rate floor (Zipf head traffic must hit);
//   - caching never costs deadlines: the cache-on deadline-miss rate stays
//     within -max-dmr-delta of the cache-off reference.
//
// Usage:
//
//	schemble-cache [-quick] [-out BENCH_cache.json]
//	               [-baseline BENCH_cache.json] [-min-hit-rate 0.3]
//
// -quick shrinks the pipeline fit and the soak horizon for CI. When
// -baseline names an existing result file, the run fails (exit 1) if the
// hit rate drops more than -max-hit-drop below the baseline; the baseline
// is read before -out is rewritten, so both may name the same file. The
// output contains no wall-clock timestamps: two runs of the same tree
// produce identical files.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"schemble/internal/cluster"
	"schemble/internal/core"
	"schemble/internal/dataset"
	"schemble/internal/engine"
	"schemble/internal/metrics"
	"schemble/internal/model"
	"schemble/internal/pipeline"
	"schemble/internal/rcache"
	"schemble/internal/rng"
	"schemble/internal/sim"
	"schemble/internal/trace"
)

// report is the BENCH_cache.json schema ("schemble-cache/v1").
type report struct {
	Schema string `json:"schema"`
	Go     string `json:"go"`
	Quick  bool   `json:"quick"`
	// CapacityPerSec is the derived bottleneck service rate; the soak
	// offers twice it.
	CapacityPerSec float64 `json:"capacity_per_sec"`
	OfferedRate    float64 `json:"offered_rate_per_sec"`
	HorizonSec     float64 `json:"horizon_sec"`
	Arrivals       int     `json:"arrivals"`
	// Regions is the k-means centroid count keying the cache;
	// DifficultyMax is the admission threshold actually used (derived from
	// the score distribution when -cache-difficulty-max is 0).
	Regions       int     `json:"regions"`
	CacheCapacity int     `json:"cache_capacity"`
	DifficultyMax float64 `json:"difficulty_max"`

	// Off is the cache-off reference run; On is the cache-on run over the
	// identical trace and seed.
	Off run `json:"off"`
	On  run `json:"on"`

	HitRate float64 `json:"hit_rate"`
	Hits    uint64  `json:"hits"`
	Misses  uint64  `json:"misses"`
	Bypass  uint64  `json:"bypasses"`
	Fills   uint64  `json:"fills"`
	Evicted uint64  `json:"evictions"`
}

// run is one simulator pass's outcome aggregates.
type run struct {
	// ServedPerSec counts in-deadline completions per virtual second
	// (cached answers included — a hit is a served query).
	ServedPerSec float64 `json:"served_per_sec"`
	DMR          float64 `json:"dmr"`
	Accuracy     float64 `json:"accuracy"`
	Missed       int     `json:"missed"`
	Rejected     int     `json:"rejected"`
	CachedCount  int     `json:"cached,omitempty"`
}

func summarizeRun(recs []metrics.Record, horizon time.Duration) run {
	s := metrics.Summarize(recs)
	cached := 0
	for _, r := range recs {
		if r.Cached {
			cached++
		}
	}
	return run{
		ServedPerSec: float64(s.N-s.Missed-s.Rejected) / horizon.Seconds(),
		DMR:          s.DMR,
		Accuracy:     s.Accuracy,
		Missed:       s.Missed,
		Rejected:     s.Rejected,
		CachedCount:  cached,
	}
}

func main() {
	out := flag.String("out", "BENCH_cache.json", "output path (- for stdout)")
	quick := flag.Bool("quick", false, "shrink the pipeline fit and soak horizon for CI")
	baselinePath := flag.String("baseline", "", "compare against this prior BENCH_cache.json and fail on hit-rate regression")
	minHitRate := flag.Float64("min-hit-rate", 0.3, "hard floor on the cache hit rate")
	maxDMRDelta := flag.Float64("max-dmr-delta", 0.02, "largest tolerated cache-on DMR excess over the cache-off reference")
	maxHitDrop := flag.Float64("max-hit-drop", 0.1, "largest tolerated hit-rate drop vs the baseline (wide enough to absorb the quick-vs-full fixture gap)")
	regions := flag.Int("regions", 64, "k-means centroids keying the cache")
	cacheSize := flag.Int("cache-size", 1024, "cache entry capacity")
	difficultyMax := flag.Float64("cache-difficulty-max", 0, "admission threshold (0 = the pool's 75th-percentile predicted score)")
	zipfS := flag.Float64("zipf-s", 1.2, "Zipf popularity exponent of the soak trace")
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
	rate := 2 * capacity
	n := int(rate * horizon.Seconds())

	// Derive the admission threshold from the pool's own difficulty
	// distribution when unset: the 75th percentile keeps the easy head
	// cacheable while the hardest quartile always runs the ensemble.
	dmax := *difficultyMax
	if dmax <= 0 {
		scores := make([]float64, len(arts.Serve))
		for i, s := range arts.Serve {
			scores[i] = arts.Predictor.Predict(s)
		}
		sort.Float64s(scores)
		dmax = scores[len(scores)*3/4]
	}

	points := make([][]float64, len(arts.Serve))
	for i, s := range arts.Serve {
		points[i] = s.Features
	}
	km, err := cluster.Fit(points, *regions, 30, rng.New(*seed^0xcac4e))
	if err != nil {
		fmt.Fprintf(os.Stderr, "fitting keyer: %v\n", err)
		os.Exit(1)
	}
	cacheCfg := rcache.Config{
		Keyer:         rcache.CentroidKeyer{KM: km},
		Capacity:      *cacheSize,
		DifficultyMax: dmax,
	}

	tr := trace.Zipfian(trace.ZipfianConfig{
		RatePerSec: rate, N: n, Samples: arts.Serve,
		Deadline: trace.ConstantDeadline(400 * time.Millisecond),
		S:        *zipfS, Seed: *seed,
	})
	simCfg := func(cache rcache.Config) sim.Config {
		return sim.Config{
			Ensemble:   arts.Ensemble,
			Refs:       arts.Refs,
			Scorer:     arts.Scorer,
			Scheduler:  &core.DP{Delta: 0.01},
			Rewarder:   arts.Profile,
			Estimator:  arts.Predictor,
			ScoreDelay: arts.Predictor.InferCost,
			Cache:      cache,
			Seed:       *seed,
		}
	}
	fmt.Fprintf(os.Stderr, "soaking %d arrivals at %.1f q/s (2x capacity) cache-off...\n", n, rate)
	offRecs, _ := sim.RunStats(simCfg(rcache.Config{}), tr, arts.Serve)
	fmt.Fprintln(os.Stderr, "soaking the identical trace cache-on...")
	onRecs, snap := sim.RunStats(simCfg(cacheCfg), tr, arts.Serve)

	rep := report{
		Schema:         "schemble-cache/v1",
		Go:             runtime.Version(),
		Quick:          *quick,
		CapacityPerSec: capacity,
		OfferedRate:    rate,
		HorizonSec:     horizon.Seconds(),
		Arrivals:       n,
		Regions:        km.K(),
		CacheCapacity:  *cacheSize,
		DifficultyMax:  dmax,
		Off:            summarizeRun(offRecs, horizon),
		On:             summarizeRun(onRecs, horizon),
		HitRate:        snap.HitRate,
		Hits:           snap.Hits,
		Misses:         snap.Misses,
		Bypass:         snap.Bypasses,
		Fills:          snap.Fills,
		Evicted:        snap.Evictions,
	}
	fmt.Fprintf(os.Stderr,
		"cache-off: %.1f served/s dmr %.3f acc %.3f\ncache-on:  %.1f served/s dmr %.3f acc %.3f (%d cached, hit rate %.3f)\n",
		rep.Off.ServedPerSec, rep.Off.DMR, rep.Off.Accuracy,
		rep.On.ServedPerSec, rep.On.DMR, rep.On.Accuracy, rep.On.CachedCount, rep.HitRate)

	failed := false
	if rep.HitRate < *minHitRate {
		fmt.Fprintf(os.Stderr, "FAIL: hit rate %.3f below floor %.3f\n", rep.HitRate, *minHitRate)
		failed = true
	}
	if rep.On.DMR > rep.Off.DMR+*maxDMRDelta {
		fmt.Fprintf(os.Stderr, "FAIL: cache-on DMR %.3f exceeds cache-off %.3f + %.3f\n",
			rep.On.DMR, rep.Off.DMR, *maxDMRDelta)
		failed = true
	}

	// Regression gate against a committed baseline (read before -out is
	// rewritten, so both may name the same file).
	if *baselinePath != "" {
		if raw, err := os.ReadFile(*baselinePath); err == nil {
			var base report
			if err := json.Unmarshal(raw, &base); err != nil {
				fmt.Fprintf(os.Stderr, "baseline %s unreadable: %v\n", *baselinePath, err)
			} else if rep.HitRate < base.HitRate-*maxHitDrop {
				fmt.Fprintf(os.Stderr, "FAIL: hit rate regressed %.3f -> %.3f (tolerance %.3f)\n",
					base.HitRate, rep.HitRate, *maxHitDrop)
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
