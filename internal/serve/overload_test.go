package serve

import (
	"sort"
	"sync"
	"testing"
	"time"

	"schemble/internal/core"
	"schemble/internal/obsv"
	"schemble/internal/pipeline"
	"schemble/internal/rcache"
	"schemble/internal/trace"
)

func testClasses() []Class {
	return []Class{
		{Name: "gold", Priority: 2, Deadline: 400 * time.Millisecond, Weight: 3},
		{Name: "silver", Priority: 1, Deadline: 400 * time.Millisecond, Weight: 2},
		{Name: "bronze", Priority: 0, Deadline: 600 * time.Millisecond, Weight: 1},
	}
}

func testClassMix() []trace.ClassMix {
	return []trace.ClassMix{
		{Name: "gold", Share: 0.2, Deadline: 400 * time.Millisecond},
		{Name: "silver", Share: 0.3, Deadline: 400 * time.Millisecond},
		{Name: "bronze", Share: 0.5, Deadline: 600 * time.Millisecond},
	}
}

func classedConfig(a *pipeline.Artifacts, scale float64) Config {
	return Config{
		Ensemble:  a.Ensemble,
		Scheduler: &core.DP{Delta: 0.01},
		Rewarder:  a.Profile,
		Estimator: a.Predictor,
		TimeScale: scale,
		Classes:   testClasses(),
		Seed:      1,
	}
}

func newClassedServer(t *testing.T, a *pipeline.Artifacts, scale float64) *Server {
	t.Helper()
	return New(classedConfig(a, scale))
}

type classAgg struct{ submitted, rejected, missed, degraded, served int }

func aggregateByClass(tr *trace.Trace, res []Result) map[string]*classAgg {
	byClass := map[string]*classAgg{}
	for i, arr := range tr.Arrivals {
		cs := byClass[arr.Class]
		if cs == nil {
			cs = &classAgg{}
			byClass[arr.Class] = cs
		}
		cs.submitted++
		switch {
		case res[i].Rejected:
			cs.rejected++
		case res[i].Missed:
			cs.missed++
		case res[i].Degraded:
			cs.degraded++
		default:
			cs.served++
		}
	}
	return byClass
}

// TestServeFlashCrowdSoak drives a seeded multi-class flash crowd peaking at
// 8x the fleet's bottleneck capacity through the classed runtime, with the
// result cache off and on. Each run must (a) resolve every request exactly
// once, the outcome taxonomy partitioning the submissions overall and per
// class, (b) shed — explicit rejections, never silent drops — from the
// lowest-priority classes first, and (c) keep the top class's deadline-miss
// rate, over the gold requests it admitted, at most 0.05. With the cache on,
// (d) no request scored over the cache's gate is answered from it, and the
// answers it gave are the hits it counted. The replays run on the frozen
// clock, so (c) is judged on one run, not on the host's pacing.
func TestServeFlashCrowdSoak(t *testing.T) {
	a := artifacts(t)
	const scale = 0.2
	const horizon = 20 * time.Second
	// Background at ~1x capacity plus a bronze-labeled crowd peaking at 8x,
	// the smallest whole factor at which the cached row still sheds: part
	// commits and early tasks leave the fleet room that whole-plan commits
	// would fill.
	crowd := trace.FlashCrowd(trace.FlashCrowdConfig{
		BackgroundRate: 11, Classes: testClassMix(), PeakFactor: 8,
		CrowdStart: 4 * time.Second, RampUp: 2 * time.Second,
		Hold: 8 * time.Second, RampDown: 2 * time.Second,
		Horizon: horizon, Samples: a.Serve, Seed: 5,
	})
	// The cache's gate is the crowd's median predicted score: half the
	// arrivals are cacheable, half always need the ensemble.
	scores := make([]float64, crowd.N())
	for i, arr := range crowd.Arrivals {
		scores[i] = a.Predictor.Predict(a.Serve[arr.SampleIdx])
	}
	sorted := append([]float64(nil), scores...)
	sort.Float64s(sorted)
	gate := sorted[len(sorted)/2]

	for _, row := range []struct {
		name  string
		cache rcache.Config
	}{
		{"bare", rcache.Config{}},
		{"cached", rcache.Config{Keyer: testKeyer(t, a, 32), Capacity: 32, DifficultyMax: gate}},
	} {
		t.Run(row.name, func(t *testing.T) {
			cfg := classedConfig(a, scale)
			cfg.Cache = row.cache
			s := New(cfg)
			results := replay(t, s, crowd, a.Serve)
			checkCrowd(t, s.Stats(), aggregateByClass(crowd, results))
			if !row.cache.Enabled() {
				return
			}
			cached := uint64(0)
			for i, res := range results {
				if !res.Cached {
					continue
				}
				cached++
				if scores[i] > gate {
					t.Fatalf("arrival %d scored %.3f over the %.3f gate and was answered from the cache", i, scores[i], gate)
				}
			}
			if hits := s.Stats().Cache.Hits; cached == 0 || cached != hits {
				t.Errorf("%d answers from the cache, the cache counted %d hits", cached, hits)
			}
		})
	}
}

// checkCrowd holds one flash-crowd run to TestServeFlashCrowdSoak's (a)-(c).
func checkCrowd(t *testing.T, st Stats, agg map[string]*classAgg) {
	t.Helper()
	// Exactly-once accounting: every submission resolved, and the outcome
	// taxonomy partitions them.
	if st.Resolved != st.Submitted {
		t.Errorf("resolved %d of %d submitted", st.Resolved, st.Submitted)
	}
	if st.Served+st.Degraded+st.Missed+st.Rejected != st.Resolved {
		t.Errorf("outcomes %d+%d+%d+%d do not partition %d resolved",
			st.Served, st.Degraded, st.Missed, st.Rejected, st.Resolved)
	}
	for _, cs := range st.Classes {
		if cs.Served+cs.Degraded+cs.Missed+cs.Rejected != cs.Submitted {
			t.Errorf("class %s: outcomes do not partition %d submitted", cs.Name, cs.Submitted)
		}
	}

	shedRate := func(name string) float64 {
		return float64(agg[name].rejected) / float64(agg[name].submitted)
	}
	// The crowd must overload the fleet enough to shed, and the shedding
	// must be priority-ordered (small tolerance absorbs arrival noise).
	if shedRate("bronze") == 0 {
		t.Error("8x flash crowd shed nothing")
	}
	if shedRate("gold") > shedRate("silver")+0.05 || shedRate("silver") > shedRate("bronze")+0.05 {
		t.Errorf("shedding not priority-ordered: gold %.3f silver %.3f bronze %.3f",
			shedRate("gold"), shedRate("silver"), shedRate("bronze"))
	}
	gold := agg["gold"]
	if gold.submitted == gold.rejected {
		t.Fatal("every gold request was shed")
	}
	if dmr := float64(gold.missed) / float64(gold.submitted-gold.rejected); dmr > 0.05 {
		t.Errorf("gold missed %d of %d admitted (%.3f) under the crowd, want at most 0.05",
			gold.missed, gold.submitted-gold.rejected, dmr)
	}
	t.Logf("gold missed %d of %d admitted; shed gold %.3f silver %.3f bronze %.3f",
		gold.missed, gold.submitted-gold.rejected, shedRate("gold"), shedRate("silver"), shedRate("bronze"))
}

// TestServeClassDefaults: a request without a deadline takes its class's,
// and one whose class name is unknown or empty lands in the lowest-priority
// class, bronze, deadline included.
func TestServeClassDefaults(t *testing.T) {
	a := artifacts(t)
	var mu sync.Mutex
	traces := map[uint64]obsv.DecisionTrace{}
	cfg := classedConfig(a, 0.2)
	cfg.Obs = obsv.Config{Sink: func(tr obsv.DecisionTrace) {
		mu.Lock()
		traces[tr.ID] = tr
		mu.Unlock()
	}}
	s := New(cfg)
	// Zero deadlines, so the class default must apply.
	tr := &trace.Trace{Arrivals: []trace.Arrival{
		{SampleIdx: 0, At: 100 * time.Millisecond, Class: "gold"},
		{SampleIdx: 1, At: 600 * time.Millisecond, Class: "no-such-class"},
		{SampleIdx: 2, At: 1100 * time.Millisecond},
	}}
	results := replay(t, s, tr, a.Serve)
	mu.Lock()
	defer mu.Unlock()
	for i, want := range []struct {
		class  string
		budget time.Duration
	}{{"gold", 400 * time.Millisecond}, {"bronze", 600 * time.Millisecond}, {"bronze", 600 * time.Millisecond}} {
		d := traces[uint64(i+1)]
		if d.Class != want.class || d.Deadline-d.Queued != want.budget {
			t.Errorf("arrival %d: class %q, relative deadline %v; want %q, %v",
				i, d.Class, d.Deadline-d.Queued, want.class, want.budget)
		}
		if results[i].Missed {
			t.Errorf("uncontended arrival %d missed", i)
		}
	}
}

// TestServeClasslessAdmissionBitIdentical is the compatibility lock: with
// Classes unset, the admission controller, ladder and per-class machinery
// must be completely inert — a twin server with explicit (non-zero)
// admission tuning but no classes produces bit-identical results to the
// plain zero-config runtime, request for request.
func TestServeClasslessAdmissionBitIdentical(t *testing.T) {
	_, tuned := twins(t, artifacts(t), 25, func(c *Config) {
		c.Admission = AdmissionConfig{Capacity: 2, Target: 50 * time.Millisecond}
	})
	st := tuned.Stats()
	if len(st.Classes) != 0 {
		t.Errorf("classless runtime reports %d classes", len(st.Classes))
	}
	if st.Ladder != 0 {
		t.Errorf("classless runtime climbed the ladder: rung %d", st.Ladder)
	}
}

// TestServeRetryAfterIdleFloor pins the Retry-After floor: an idle
// runtime advises the minimum 1s backoff, never 0.
func TestServeRetryAfterIdleFloor(t *testing.T) {
	a := artifacts(t)
	s := newClassedServer(t, a, 0.1)
	if got := s.RetryAfterSeconds(); got != 1 {
		t.Errorf("idle RetryAfterSeconds = %d, want 1", got)
	}
	if s.Load() < 0 {
		t.Errorf("idle load = %f, want >= 0", s.Load())
	}
}
