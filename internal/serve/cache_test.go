package serve

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"schemble/internal/cluster"
	"schemble/internal/core"
	"schemble/internal/obsv"
	"schemble/internal/pipeline"
	"schemble/internal/rcache"
	"schemble/internal/rng"
)

// testKeyer fits a small centroid keyer on the serving pool's feature
// space.
func testKeyer(t *testing.T, a *pipeline.Artifacts, k int) rcache.CentroidKeyer {
	t.Helper()
	points := make([][]float64, len(a.Serve))
	for i, s := range a.Serve {
		points[i] = s.Features
	}
	km, err := cluster.Fit(points, k, 30, rng.New(99))
	if err != nil {
		t.Fatal(err)
	}
	return rcache.CentroidKeyer{KM: km}
}

func newCacheServer(t *testing.T, a *pipeline.Artifacts, cc rcache.Config) *Server {
	t.Helper()
	cfg := baseConfig(a)
	cfg.Cache = cc
	return New(cfg)
}

// TestServeCacheBitIdenticalWhenOff pins the zero-config guarantee with a
// twin pair: a server with no cache configured and one whose cache is on
// but gated shut (negative difficulty threshold — every lookup is a
// bypass) must produce bit-identical Results request for request, because
// a bypass never touches planning, dispatch, or the RNG.
func TestServeCacheBitIdenticalWhenOff(t *testing.T) {
	a := artifacts(t)
	const n = 25
	plain, gated := twins(t, a, n, func(c *Config) {
		c.Cache = rcache.Config{Keyer: testKeyer(t, a, 4), DifficultyMax: -1}
	})
	if plain.Stats().Cache != nil {
		t.Fatal("zero-value Cache config built a cache")
	}
	cs := gated.Stats().Cache
	if cs == nil || cs.Bypasses != n || cs.Hits+cs.Misses+cs.Fills != 0 {
		t.Errorf("gated cache counters = %+v, want %d bypasses and nothing else", cs, n)
	}
}

// TestServeCacheHitFlow drives one miss-fill-hit cycle end to end: the
// first request for a sample runs the ensemble and fills its centroid
// entry, the second resolves from the cache with the same subset and
// output, and both the stats surface and the decision trace record the
// outcomes.
func TestServeCacheHitFlow(t *testing.T) {
	a := artifacts(t)
	s := New(Config{
		Ensemble:  a.Ensemble,
		Scheduler: &core.DP{Delta: 0.01},
		Rewarder:  a.Profile,
		Estimator: a.Predictor,
		TimeScale: 0.1,
		Seed:      1,
		Obs:       obsv.Config{TraceBuffer: 8},
		Cache:     rcache.Config{Keyer: testKeyer(t, a, 64), DifficultyMax: 1},
	})
	s.Start(context.Background())
	defer s.Stop()

	first := <-s.Submit(a.Serve[0], time.Second)
	if first.Missed || first.Cached {
		t.Fatalf("first request: missed=%v cached=%v, want clean uncached serve",
			first.Missed, first.Cached)
	}
	second := <-s.Submit(a.Serve[0], time.Second)
	if !second.Cached || second.Missed {
		t.Fatalf("second request: missed=%v cached=%v, want a cache hit",
			second.Missed, second.Cached)
	}
	if second.Subset != first.Subset {
		t.Errorf("cached subset %v differs from computed %v",
			second.Subset.Models(), first.Subset.Models())
	}
	if !reflect.DeepEqual(second.Output, first.Output) {
		t.Error("cached output differs from the computed one")
	}

	cs := s.Stats().Cache
	if cs == nil || cs.Hits != 1 || cs.Misses != 1 || cs.Fills != 1 {
		t.Errorf("cache counters = %+v, want 1 hit / 1 miss / 1 fill", cs)
	}
	if cs != nil && cs.HitRate != 0.5 {
		t.Errorf("hit rate = %v, want 0.5", cs.HitRate)
	}
	traces := s.Observer().Last(2)
	if len(traces) != 2 {
		t.Fatalf("recorded %d traces, want 2", len(traces))
	}
	if traces[0].Cache != obsv.CacheOutcomeMiss || traces[1].Cache != obsv.CacheOutcomeHit {
		t.Errorf("trace cache outcomes = %q, %q; want miss then hit",
			traces[0].Cache, traces[1].Cache)
	}
	if traces[1].Outcome != obsv.OutcomeServed {
		t.Errorf("hit trace outcome = %q, want served", traces[1].Outcome)
	}
}

// TestServeCacheAccountingConcurrent submits from many goroutines under
// -race: every request must land in exactly one cache-outcome
// counter, and fills can never exceed misses.
func TestServeCacheAccountingConcurrent(t *testing.T) {
	a := artifacts(t)
	s := newCacheServer(t, a, rcache.Config{Keyer: testKeyer(t, a, 16), DifficultyMax: 1})
	s.Start(context.Background())
	defer s.Stop()

	const n = 48
	results := make(chan Result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results <- <-s.Submit(a.Serve[i%12], 2*time.Second)
		}(i)
	}
	wg.Wait()
	close(results)
	for r := range results {
		if r.Rejected {
			t.Fatal("light concurrent load was rejected; accounting check void")
		}
	}
	cs := s.Stats().Cache
	if cs == nil {
		t.Fatal("no cache snapshot")
	}
	if got := cs.Hits + cs.Misses + cs.Bypasses; got != n {
		t.Errorf("hits+misses+bypasses = %d, want %d (exactly-once)", got, n)
	}
	if cs.Fills > cs.Misses {
		t.Errorf("fills %d > misses %d", cs.Fills, cs.Misses)
	}
}
