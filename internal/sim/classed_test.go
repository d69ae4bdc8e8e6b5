package sim

import (
	"sort"
	"testing"
	"time"

	"schemble/internal/adapt"
	"schemble/internal/cluster"
	"schemble/internal/dataset"
	"schemble/internal/discrepancy"
	"schemble/internal/ensemble"
	"schemble/internal/metrics"
	"schemble/internal/pipeline"
	"schemble/internal/qos"
	"schemble/internal/rcache"
	"schemble/internal/rng"
	"schemble/internal/trace"
)

func simClasses() []qos.Class {
	return []qos.Class{
		{Name: "gold", Priority: 2, Deadline: 400 * time.Millisecond, Weight: 3},
		{Name: "silver", Priority: 1, Deadline: 400 * time.Millisecond, Weight: 2},
		{Name: "bronze", Priority: 0, Deadline: 600 * time.Millisecond, Weight: 1},
	}
}

func simClassMix() []trace.ClassMix {
	return []trace.ClassMix{
		{Name: "gold", Share: 0.2, Deadline: 400 * time.Millisecond},
		{Name: "silver", Share: 0.3, Deadline: 400 * time.Millisecond},
		{Name: "bronze", Share: 0.5, Deadline: 600 * time.Millisecond},
	}
}

// flashCrowdTrace is the 5x flash crowd the classed tests share. Bottleneck
// capacity with single replicas is ~11 q/s; the crowd peaks at 5x the
// background.
func flashCrowdTrace(a *pipeline.Artifacts) *trace.Trace {
	return trace.FlashCrowd(trace.FlashCrowdConfig{
		BackgroundRate: 11,
		Classes:        simClassMix(),
		PeakFactor:     5,
		Horizon:        40 * time.Second,
		Samples:        a.Serve,
		Seed:           3,
	})
}

// classOutcomes are one class's outcome counts over a run's records.
type classOutcomes struct{ submitted, rejected, missed, cached int }

func (c classOutcomes) shedRate() float64 { return float64(c.rejected) / float64(c.submitted) }
func (c classOutcomes) dmr() float64      { return float64(c.missed) / float64(c.submitted-c.rejected) }

func outcomesByClass(t *testing.T, recs []metrics.Record) map[string]*classOutcomes {
	t.Helper()
	byClass := map[string]*classOutcomes{}
	for _, c := range simClasses() {
		byClass[c.Name] = &classOutcomes{}
	}
	for _, r := range recs {
		cs := byClass[r.Class]
		if cs == nil {
			t.Fatalf("record carries unknown class %q", r.Class)
		}
		cs.submitted++
		switch {
		case r.Rejected:
			cs.rejected++
		case r.Missed:
			cs.missed++
		case r.Cached:
			cs.cached++
		}
	}
	return byClass
}

// checkCrowdProtection holds a flash-crowd run to the class contract: the
// crowd overloads the fleet, so someone must be shed, the shedding must be
// priority-ordered, and gold must keep its deadlines.
func checkCrowdProtection(t *testing.T, byClass map[string]*classOutcomes) {
	t.Helper()
	gold, silver, bronze := byClass["gold"], byClass["silver"], byClass["bronze"]
	if bronze.rejected == 0 {
		t.Fatal("5x flash crowd shed nothing")
	}
	if gold.shedRate() > silver.shedRate()+0.02 || silver.shedRate() > bronze.shedRate()+0.02 {
		t.Errorf("shedding not priority-ordered: gold %.3f silver %.3f bronze %.3f",
			gold.shedRate(), silver.shedRate(), bronze.shedRate())
	}
	if d := gold.dmr(); d > 0.05 {
		t.Errorf("gold deadline-miss rate %.3f under crowd, want near zero", d)
	}
}

// TestSimClassedFlashCrowd drives a 5x flash crowd through the classed
// simulator: the admission controller must shed strictly lowest-priority
// first, every record must carry its class label, and the gold class must
// keep its deadline-miss rate near zero while the crowd rages.
func TestSimClassedFlashCrowd(t *testing.T) {
	a := artifacts(t)
	tr := flashCrowdTrace(a)
	cfg := schembleConfig(a)
	cfg.Classes = simClasses()
	recs := Run(cfg, tr, a.Serve)
	checkCrowdProtection(t, outcomesByClass(t, recs))

	// While the ladder is engaged the capped queries' tasks spread over the
	// fleet: roberta (80 ms) and bert (90 ms) are near-twins, so neither may
	// take the degraded traffic while the other idles. 137 and 101 tasks here;
	// a cap that keeps the statically cheapest models gave 209 and 23.
	perModel := make([]int, a.Ensemble.M())
	for _, r := range recs {
		if r.Degraded {
			for _, k := range r.Subset.Models() {
				perModel[k]++
			}
		}
	}
	if lo, hi := min(perModel[1], perModel[2]), max(perModel[1], perModel[2]); lo == 0 || 2*lo < hi {
		t.Errorf("degraded queries ran %v tasks per model: the slow twins are more than 2x apart", perModel)
	}

	// Determinism: the classed path must replay bit-identically.
	again := Run(cfg, tr, a.Serve)
	if len(again) != len(recs) {
		t.Fatal("classed replay changed record count")
	}
	for i := range recs {
		if recs[i] != again[i] {
			t.Fatalf("classed replay diverged at record %d", i)
		}
	}
}

// TestSimClassedFlashCrowdCached runs the same crowd with the result cache
// on, classes against cache, as the records show it: a query the cache can
// answer is recorded as cached whatever the controller thinks of its class,
// the records and the cache count the same hits, and the class contract
// holds as it does without the cache. (The order of the arrival path itself
// is pinned on the engine, internal/engine's TestArriveHitIsNeverShed.)
func TestSimClassedFlashCrowdCached(t *testing.T) {
	a := artifacts(t)
	tr := flashCrowdTrace(a)
	points := make([][]float64, len(a.Serve))
	for i, s := range a.Serve {
		points[i] = s.Features
	}
	const regions = 32
	km, err := cluster.Fit(points, regions, 30, rng.New(99))
	if err != nil {
		t.Fatal(err)
	}
	keyer := rcache.CentroidKeyer{KM: km}
	// Gate at the trace's median predicted score: half the arrivals are
	// cacheable, half always need the ensemble.
	scores, keys := make([]float64, tr.N()), make([]int, tr.N())
	for i, arr := range tr.Arrivals {
		scores[i] = a.Predictor.Predict(a.Serve[arr.SampleIdx])
		keys[i], _ = keyer.Key(a.Serve[arr.SampleIdx].Features)
	}
	sorted := append([]float64(nil), scores...)
	sort.Float64s(sorted)
	gate := sorted[len(sorted)/2]

	cfg := schembleConfig(a)
	cfg.Classes = simClasses()
	// No TTL and room for every region: an entry, once filled, stays live.
	cfg.Cache = rcache.Config{Keyer: keyer, Capacity: regions, DifficultyMax: gate}
	// With half the crowd answerable from the cache the default rungs, 0.5
	// of load apart, never reach bronze's shed rung on this trace; a fifth
	// of that does, for about a tenth of the arrivals.
	cfg.Admission = qos.Tuning{LadderStep: 0.1}
	recs, snap := RunStats(cfg, tr, a.Serve)
	// An easy query fills its region when it completes cleanly; from then on
	// every easy arrival in the region must come back cached — rejected
	// least of all.
	filledAt := map[int]time.Duration{}
	for i, r := range recs {
		if scores[i] > gate || r.Cached || r.Missed || r.Degraded {
			continue
		}
		if at, ok := filledAt[keys[i]]; !ok || r.Done < at {
			filledAt[keys[i]] = r.Done
		}
	}
	answerable := 0
	for i, r := range recs {
		if scores[i] > gate {
			if r.Cached {
				t.Fatalf("arrival %d scored %.3f over the %.3f gate and was served from the cache", i, scores[i], gate)
			}
			continue
		}
		if at, ok := filledAt[keys[i]]; ok && at < r.Arrival {
			answerable++
			if !r.Cached {
				t.Fatalf("arrival %d (%s, rejected=%v): easy, region %d filled at %v before it arrived at %v, yet not answered from the cache",
					i, r.Class, r.Rejected, keys[i], at, r.Arrival)
			}
		}
	}
	if answerable == 0 {
		t.Fatal("no arrival met a filled region; the fixture lost its point")
	}
	byClass := outcomesByClass(t, recs)
	checkCrowdProtection(t, byClass)
	var cached int
	for _, c := range byClass {
		cached += c.cached
	}
	if uint64(cached) != snap.Hits {
		t.Errorf("records carry %d cached answers, the cache counted %d hits", cached, snap.Hits)
	}
}

// countingEstimator counts the predictor's forward passes.
type countingEstimator struct {
	inner discrepancy.ScoreEstimator
	calls int
}

func (c *countingEstimator) Predict(s *dataset.Sample) float64 {
	c.calls++
	return c.inner.Predict(s)
}

// TestSimClassedAdaptScoresEveryArrival, classes against adaptation: the
// simulator hands every arrival to the engine's arrival path, the ones it
// then records as shed included. (That a scored arrival also reaches the
// score-drift window is pinned on the engine,
// TestArriveScoresEveryArrivalOnce.)
func TestSimClassedAdaptScoresEveryArrival(t *testing.T) {
	a := artifacts(t)
	tr := flashCrowdTrace(a)
	est := &countingEstimator{inner: a.Predictor}
	cfg := schembleConfig(a)
	cfg.Estimator = est
	cfg.Classes = simClasses()
	cfg.Adapt = adapt.Config{Enable: true}
	recs, _, _ := RunAdapt(cfg, tr, a.Serve)

	if est.calls != tr.N() {
		t.Errorf("predictor scored %d of %d arrivals: every arrival is scored once, shed or not", est.calls, tr.N())
	}
	shed := 0
	for _, r := range recs {
		if r.Rejected {
			shed++
		}
	}
	if shed == 0 {
		t.Fatal("the crowd shed nothing; the fixture lost its point")
	}
}

// TestSimClassedUnknownClassDefaults maps unlabeled and unknown arrivals
// to the lowest-priority class and applies that class's default deadline
// when the trace does not set one.
func TestSimClassedUnknownClassDefaults(t *testing.T) {
	a := artifacts(t)
	tr := &trace.Trace{Horizon: 4 * time.Second}
	// Zero trace deadlines: the class default must apply.
	tr.Arrivals = []trace.Arrival{
		{SampleIdx: 0, At: 100 * time.Millisecond, Class: "gold"},
		{SampleIdx: 1, At: 600 * time.Millisecond, Class: "no-such-class"},
		{SampleIdx: 2, At: 1100 * time.Millisecond},
	}
	cfg := schembleConfig(a)
	cfg.Classes = simClasses()
	recs := Run(cfg, tr, a.Serve)
	if recs[0].Class != "gold" || recs[0].Deadline != 500*time.Millisecond {
		t.Errorf("gold arrival: class %q deadline %v", recs[0].Class, recs[0].Deadline)
	}
	// Unknown and empty names land in the default (lowest-priority) class.
	for _, i := range []int{1, 2} {
		if recs[i].Class != "bronze" {
			t.Errorf("arrival %d: class %q, want bronze", i, recs[i].Class)
		}
		if got := recs[i].Deadline - recs[i].Arrival; got != 600*time.Millisecond {
			t.Errorf("arrival %d: relative deadline %v, want class default 600ms", i, got)
		}
	}
	for i, r := range recs {
		if r.Missed {
			t.Errorf("uncontended classed arrival %d missed", i)
		}
	}
}

// TestSimClassedRequiresBufferedMode locks the immediate-mode guard.
func TestSimClassedRequiresBufferedMode(t *testing.T) {
	a := artifacts(t)
	defer func() {
		if recover() == nil {
			t.Fatal("Classes with Select did not panic")
		}
	}()
	full := a.Ensemble.FullSubset()
	Run(Config{
		Ensemble: a.Ensemble,
		Refs:     a.Refs,
		Scorer:   a.Scorer,
		Select:   func(*dataset.Sample) ensemble.Subset { return full },
		Classes:  simClasses(),
		Seed:     1,
	}, &trace.Trace{Horizon: time.Second}, a.Serve)
}
