package main

// The cache scenario soaks the difficulty-gated result cache under a
// Zipf-popularity query stream at twice the deployment's bottleneck
// capacity and writes BENCH_cache.json.
//
// The same seeded trace replays twice on the runtime — once cache-off as
// the reference, once cache-on — so every delta in the report is
// attributable to the cache alone. The gate asserts on every
// run that the hit rate over admitted lookups stays above minHitRate
// (Zipf head traffic must hit) and that the cache-on deadline-miss rate
// stays within maxDMRDelta of the cache-off reference; against a baseline
// it fails a hit-rate drop of more than maxHitDrop.

import (
	"fmt"
	"os"
	"sort"
	"time"

	"schemble/internal/cluster"
	"schemble/internal/rcache"
	"schemble/internal/rng"
	"schemble/internal/serve"
	"schemble/internal/trace"
)

const (
	schemaCache  = "schemble-cache/v1"
	minHitRate   = 0.3  // floor on the hit rate
	maxDMRDelta  = 0.02 // cache-on DMR excess over cache-off
	maxHitDrop   = 0.1  // vs the baseline; absorbs what a change to the runtime moves
	cacheRegions = 64   // k-means centroids keying the cache
	cacheSize    = 1024 // cache entries
	zipfS        = 1.2  // Zipf popularity exponent of the trace
)

// cacheReport is the BENCH_cache.json schema.
type cacheReport struct {
	header
	// CapacityPerSec is the derived bottleneck service rate; the soak
	// offers twice it.
	CapacityPerSec float64 `json:"capacity_per_sec"`
	OfferedRate    float64 `json:"offered_rate_per_sec"`
	HorizonSec     float64 `json:"horizon_sec"`
	Arrivals       int     `json:"arrivals"`
	// Regions is the k-means centroid count keying the cache;
	// DifficultyMax is the admission threshold, the serving pool's
	// 75th-percentile predicted score.
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

func runCache(o options) (cacheReport, error) {
	d := fit(o)
	rate := 2 * d.capacity
	n := int(rate * d.horizon.Seconds())

	// The admission threshold keeps the easy head cacheable while the
	// hardest quartile always runs the ensemble.
	scores := make([]float64, len(d.arts.Serve))
	points := make([][]float64, len(d.arts.Serve))
	for i, s := range d.arts.Serve {
		scores[i] = d.arts.Predictor.Predict(s)
		points[i] = s.Features
	}
	sort.Float64s(scores)
	dmax := scores[len(scores)*3/4]

	km, err := cluster.Fit(points, cacheRegions, 30, rng.New(o.seed^0xcac4e))
	if err != nil {
		return cacheReport{}, fmt.Errorf("fitting keyer: %w", err)
	}
	tr := trace.Zipfian(trace.ZipfianConfig{
		RatePerSec: rate, N: n, Samples: d.arts.Serve,
		Deadline: trace.ConstantDeadline(400 * time.Millisecond),
		S:        zipfS, Seed: o.seed,
	})
	fmt.Fprintf(os.Stderr, "soaking %d arrivals at %.1f q/s (2x capacity) cache-off...\n", n, rate)
	offRes := serve.Replay(serve.New(d.serveConfig()), tr, d.arts.Serve)
	fmt.Fprintln(os.Stderr, "soaking the identical trace cache-on...")
	cfg := d.serveConfig()
	cfg.Cache = rcache.Config{Keyer: rcache.CentroidKeyer{KM: km}, Capacity: cacheSize, DifficultyMax: dmax}
	on := serve.New(cfg)
	onRes := serve.Replay(on, tr, d.arts.Serve)
	snap := on.Stats().Cache

	rep := cacheReport{
		header:         newHeader(schemaCache, false),
		CapacityPerSec: d.capacity,
		OfferedRate:    rate,
		HorizonSec:     d.horizon.Seconds(),
		Arrivals:       n,
		Regions:        km.K(),
		CacheCapacity:  cacheSize,
		DifficultyMax:  dmax,
		Off:            d.summarize(tr, offRes),
		On:             d.summarize(tr, onRes),
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
	return rep, nil
}

func gateCache(rep cacheReport, base *cacheReport) []string {
	var bad []string
	if rep.HitRate < minHitRate {
		bad = append(bad, fmt.Sprintf("hit rate %.3f below floor %.3f", rep.HitRate, minHitRate))
	}
	if rep.On.DMR > rep.Off.DMR+maxDMRDelta {
		bad = append(bad, fmt.Sprintf("cache-on DMR %.3f exceeds cache-off %.3f + %.3f",
			rep.On.DMR, rep.Off.DMR, maxDMRDelta))
	}
	if base != nil && rep.HitRate < base.HitRate-maxHitDrop {
		bad = append(bad, fmt.Sprintf("hit rate regressed %.3f -> %.3f (tolerance %.3f)",
			base.HitRate, rep.HitRate, maxHitDrop))
	}
	return bad
}
