package sim

import (
	"sync"
	"testing"
	"time"

	"schemble/internal/core"
	"schemble/internal/dataset"
	"schemble/internal/ensemble"
	"schemble/internal/metrics"
	"schemble/internal/model"
	"schemble/internal/pipeline"
	"schemble/internal/policy"
	"schemble/internal/trace"
)

var (
	artOnce sync.Once
	art     *pipeline.Artifacts
)

func artifacts(t *testing.T) *pipeline.Artifacts {
	t.Helper()
	artOnce.Do(func() {
		ds := dataset.TextMatching(dataset.Config{N: 2500, Seed: 99})
		art = pipeline.Build(pipeline.Config{
			Dataset: ds, Models: model.TextMatchingModels(99),
			PredictorEpochs: 30, Seed: 99,
		})
	})
	return art
}

func poissonTrace(a *pipeline.Artifacts, rate float64, n int, deadline time.Duration, seed uint64) *trace.Trace {
	return trace.Poisson(trace.PoissonConfig{
		RatePerSec: rate, N: n, Samples: a.Serve,
		Deadline: trace.ConstantDeadline(deadline), Seed: seed,
	})
}

func originalConfig(a *pipeline.Artifacts) Config {
	return Config{
		Ensemble: a.Ensemble,
		Refs:     a.Refs,
		Scorer:   a.Scorer,
		Select:   policy.Original(a.Ensemble.M()),
		Seed:     1,
	}
}

func schembleConfig(a *pipeline.Artifacts) Config {
	return Config{
		Ensemble:   a.Ensemble,
		Refs:       a.Refs,
		Scorer:     a.Scorer,
		Scheduler:  &core.DP{Delta: 0.01},
		Rewarder:   a.Profile,
		Estimator:  a.Predictor,
		ScoreDelay: a.Predictor.InferCost,
		Seed:       1,
	}
}

func TestOriginalLightLoadNoMisses(t *testing.T) {
	a := artifacts(t)
	tr := poissonTrace(a, 5, 400, 400*time.Millisecond, 2)
	recs := Run(originalConfig(a), tr, a.Serve)
	s := metrics.Summarize(recs)
	if s.DMR > 0.03 {
		t.Errorf("light-load DMR = %v, want ~0", s.DMR)
	}
	// Original executes the full ensemble, so agreement with itself is 1.
	if s.Processed < 0.999 {
		t.Errorf("original processed accuracy = %v, want 1", s.Processed)
	}
	for _, r := range recs {
		if !r.Missed && r.Subset != a.Ensemble.FullSubset() {
			t.Fatal("original served a partial subset")
		}
	}
}

func TestOriginalOverloadMissesHard(t *testing.T) {
	a := artifacts(t)
	tr := poissonTrace(a, 40, 800, 150*time.Millisecond, 3)
	s := metrics.Summarize(Run(originalConfig(a), tr, a.Serve))
	if s.DMR < 0.3 {
		t.Errorf("overload DMR = %v, want high (queue blocking)", s.DMR)
	}
}

func TestSchembleBeatsOriginalUnderLoad(t *testing.T) {
	a := artifacts(t)
	tr := poissonTrace(a, 40, 1200, 150*time.Millisecond, 4)
	orig := metrics.Summarize(Run(originalConfig(a), tr, a.Serve))
	sch := metrics.Summarize(Run(schembleConfig(a), tr, a.Serve))
	if sch.DMR >= orig.DMR {
		t.Errorf("Schemble DMR %v not below Original %v", sch.DMR, orig.DMR)
	}
	if sch.Accuracy <= orig.Accuracy {
		t.Errorf("Schemble accuracy %v not above Original %v", sch.Accuracy, orig.Accuracy)
	}
	// The headline claim is a dramatic improvement, not a nudge.
	if orig.DMR > 0 && sch.DMR > orig.DMR/2 {
		t.Errorf("Schemble DMR %v should be far below Original %v", sch.DMR, orig.DMR)
	}
}

func TestSchembleAdaptsSubsetSizeToLoad(t *testing.T) {
	a := artifacts(t)
	light := metrics.Summarize(Run(schembleConfig(a),
		poissonTrace(a, 4, 300, 300*time.Millisecond, 5), a.Serve))
	heavy := metrics.Summarize(Run(schembleConfig(a),
		poissonTrace(a, 45, 900, 150*time.Millisecond, 5), a.Serve))
	if light.MeanSubsetSize <= heavy.MeanSubsetSize {
		t.Errorf("subset size should shrink under load: light %v vs heavy %v",
			light.MeanSubsetSize, heavy.MeanSubsetSize)
	}
	if light.MeanSubsetSize < 2.5 {
		t.Errorf("light-load subset size = %v, want near full ensemble", light.MeanSubsetSize)
	}
}

func TestDeterminism(t *testing.T) {
	a := artifacts(t)
	tr := poissonTrace(a, 30, 400, 150*time.Millisecond, 6)
	r1 := Run(schembleConfig(a), tr, a.Serve)
	r2 := Run(schembleConfig(a), tr, a.Serve)
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("records differ at %d: %+v vs %+v", i, r1[i], r2[i])
		}
	}
}

func TestRecordsMatchTrace(t *testing.T) {
	a := artifacts(t)
	tr := poissonTrace(a, 20, 250, 200*time.Millisecond, 7)
	recs := Run(originalConfig(a), tr, a.Serve)
	if len(recs) != tr.N() {
		t.Fatalf("records %d, trace %d", len(recs), tr.N())
	}
	for i, r := range recs {
		if r.QueryID != i {
			t.Fatal("records not in trace order")
		}
		if r.Arrival != tr.Arrivals[i].At || r.Deadline != tr.Arrivals[i].Deadline {
			t.Fatal("record timestamps do not match trace")
		}
		if !r.Missed && (r.Done < r.Arrival || r.Done > r.Deadline) {
			t.Fatalf("completed query %d outside [arrival, deadline]: %+v", i, r)
		}
	}
}

func TestForceProcessCompletesEverything(t *testing.T) {
	a := artifacts(t)
	tr := poissonTrace(a, 40, 600, 150*time.Millisecond, 8)

	ocfg := originalConfig(a)
	ocfg.ForceProcess = true
	orig := Run(ocfg, tr, a.Serve)
	for i, r := range orig {
		if r.Missed {
			t.Fatalf("forced original left query %d unprocessed", i)
		}
	}
	scfg := schembleConfig(a)
	scfg.ForceProcess = true
	sch := Run(scfg, tr, a.Serve)
	for i, r := range sch {
		if r.Missed {
			t.Fatalf("forced schemble left query %d unprocessed", i)
		}
	}
	so, ss := metrics.Summarize(orig), metrics.Summarize(sch)
	// Table II: Original's forced latency explodes under load; Schemble's
	// stays near service time.
	if ss.LatMean >= so.LatMean {
		t.Errorf("forced latency: schemble %v should beat original %v", ss.LatMean, so.LatMean)
	}
	if ss.Processed < 0.85 {
		t.Errorf("forced schemble accuracy = %v, want high", ss.Processed)
	}
}

func TestStaticWithReplicas(t *testing.T) {
	a := artifacts(t)
	plan := a.StaticPlan(40)
	cfg := Config{
		Ensemble: a.Ensemble,
		Replicas: plan.Replicas,
		Refs:     a.Refs,
		Scorer:   a.Scorer,
		Select:   plan.Select(),
		Seed:     1,
	}
	tr := poissonTrace(a, 40, 800, 150*time.Millisecond, 9)
	s := metrics.Summarize(Run(cfg, tr, a.Serve))
	orig := metrics.Summarize(Run(originalConfig(a), tr, a.Serve))
	if s.DMR >= orig.DMR {
		t.Errorf("static DMR %v should beat original %v under load", s.DMR, orig.DMR)
	}
	if s.Processed < 0.8 {
		t.Errorf("static processed accuracy = %v", s.Processed)
	}
}

func TestBufferedGreedyRuns(t *testing.T) {
	a := artifacts(t)
	cfg := schembleConfig(a)
	cfg.Scheduler = &core.Greedy{Order: core.EDF}
	tr := poissonTrace(a, 35, 500, 150*time.Millisecond, 10)
	s := metrics.Summarize(Run(cfg, tr, a.Serve))
	if s.N != 500 {
		t.Fatalf("N = %d", s.N)
	}
	if s.DMR > 0.6 {
		t.Errorf("greedy+EDF DMR = %v, unexpectedly bad", s.DMR)
	}
}

func TestSchedOverheadHurts(t *testing.T) {
	a := artifacts(t)
	tr := poissonTrace(a, 40, 700, 130*time.Millisecond, 11)
	fast := schembleConfig(a)
	slow := schembleConfig(a)
	slow.SchedOverhead = func(buffered int) time.Duration {
		return 40 * time.Millisecond // pathological planning cost
	}
	sFast := metrics.Summarize(Run(fast, tr, a.Serve))
	sSlow := metrics.Summarize(Run(slow, tr, a.Serve))
	if sSlow.DMR <= sFast.DMR {
		t.Errorf("scheduling overhead should raise DMR: %v vs %v", sSlow.DMR, sFast.DMR)
	}
}

func TestConfigValidation(t *testing.T) {
	a := artifacts(t)
	tr := poissonTrace(a, 5, 10, time.Second, 12)
	mustPanic := func(name string, cfg Config) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		Run(cfg, tr, a.Serve)
	}
	both := originalConfig(a)
	both.Scheduler = &core.DP{}
	mustPanic("both modes", both)
	neither := originalConfig(a)
	neither.Select = nil
	mustPanic("no mode", neither)
	noReward := schembleConfig(a)
	noReward.Rewarder = nil
	mustPanic("no rewarder", noReward)
}

func TestCompletedLateCountsMissed(t *testing.T) {
	// A tiny deadline that admission estimates (mean latency plus the
	// planning margin) accept but jitter can push past the deadline:
	// completed-late queries must be recorded as missed in rejection mode.
	a := artifacts(t)
	// Deadline just above bert's planning estimate, 90ms × 1.1: the runs
	// that draw more than 100ms finish late.
	tr := poissonTrace(a, 1, 100, 100*time.Millisecond, 13)
	cfg := Config{
		Ensemble: a.Ensemble,
		Refs:     a.Refs,
		Scorer:   a.Scorer,
		Select: func(*dataset.Sample) ensemble.Subset {
			return ensemble.Single(2) // bert, 90ms mean
		},
		Seed: 2,
	}
	s := metrics.Summarize(Run(cfg, tr, a.Serve))
	t.Logf("%d of %d queries missed", s.Missed, s.N)
	if s.Missed == 0 {
		t.Error("expected some jitter-induced misses")
	}
	if s.Missed == s.N {
		t.Error("expected some completions too")
	}
}

func TestFastFirstBypassesPredictorWait(t *testing.T) {
	a := artifacts(t)
	// Light traffic with generous deadlines: every query finds an idle
	// system, so with FastFirst all of them run on the fastest model.
	tr := poissonTrace(a, 2, 200, 500*time.Millisecond, 14)
	cfg := schembleConfig(a)
	cfg.FastFirst = true
	recs := Run(cfg, tr, a.Serve)
	fastCount := 0
	for _, r := range recs {
		if r.Missed {
			continue
		}
		if r.Subset == ensemble.Single(0) {
			fastCount++
		}
	}
	if fastCount < 150 {
		t.Errorf("only %d/200 queries took the fast path", fastCount)
	}
	// Latency of fast-path queries excludes the predictor wait.
	s := metrics.Summarize(recs)
	if s.LatMean > 35*time.Millisecond {
		t.Errorf("fast-path mean latency %v, want ~bilstm latency", s.LatMean)
	}
}

func TestFastFirstStillSchedulesUnderLoad(t *testing.T) {
	a := artifacts(t)
	tr := poissonTrace(a, 45, 600, 150*time.Millisecond, 15)
	cfg := schembleConfig(a)
	cfg.FastFirst = true
	s := metrics.Summarize(Run(cfg, tr, a.Serve))
	// Under a burst the buffer is non-empty, so the scheduler still runs
	// and keeps the DMR manageable.
	if s.DMR > 0.3 {
		t.Errorf("fast-first burst DMR = %v", s.DMR)
	}
}

func TestBatchingIncreasesThroughputButStretchesLatency(t *testing.T) {
	a := artifacts(t)
	// Force-process everything so latency (not rejection) is observable.
	base := originalConfig(a)
	base.ForceProcess = true
	batched := originalConfig(a)
	batched.ForceProcess = true
	batched.BatchSize = 8

	tr := poissonTrace(a, 30, 600, 150*time.Millisecond, 21)
	sPlain := metrics.Summarize(Run(base, tr, a.Serve))
	sBatch := metrics.Summarize(Run(batched, tr, a.Serve))

	// At 30 q/s the unbatched ensemble (capacity ~11 q/s) builds an
	// unbounded queue; batch 8 sustains the load, so its mean latency is
	// far smaller even though each batch runs longer than one task.
	if sBatch.LatMean >= sPlain.LatMean {
		t.Errorf("batched mean latency %v should be far below unbatched %v under overload",
			sBatch.LatMean, sPlain.LatMean)
	}
	// But the floor is the stretched batch duration: no batched query can
	// beat a solo run of the slowest model.
	if sBatch.LatMean < 90*time.Millisecond {
		t.Errorf("batched mean latency %v below the solo service time — batching model broken", sBatch.LatMean)
	}
}

func TestBatchSizeOneMatchesDefault(t *testing.T) {
	a := artifacts(t)
	tr := poissonTrace(a, 20, 300, 200*time.Millisecond, 22)
	plain := Run(originalConfig(a), tr, a.Serve)
	one := originalConfig(a)
	one.BatchSize = 1
	withOne := Run(one, tr, a.Serve)
	for i := range plain {
		if plain[i] != withOne[i] {
			t.Fatal("BatchSize=1 should be identical to no batching")
		}
	}
}

// fullPlanScheduler unconditionally assigns the full ensemble to every
// buffered query — even past-deadline ones — to expose double-commit bugs
// the feasibility-aware DP scheduler would mask.
type fullPlanScheduler struct{ m int }

func (f fullPlanScheduler) Name() string { return "test-full-plan" }

func (f fullPlanScheduler) Schedule(now time.Duration, qs []core.QueryInfo,
	avail core.Capacity, exec []time.Duration, r core.Rewarder) core.Plan {
	as := make(map[int]ensemble.Subset, len(qs))
	for _, q := range qs {
		as[q.ID] = ensemble.Full(f.m)
	}
	return core.Plan{Assignments: as}
}

// TestForceProcessEarlyDeadlineCommitsOnce is the regression test for the
// evReady/evDeadline ordering bug: a query whose deadline falls before
// arrival+ScoreDelay is force-committed to the fastest model by
// onDeadline; the later evReady must NOT re-buffer it, or the scheduler
// commits it a second time (re-enqueueing tasks and resetting
// remaining/outs), recording an oversized subset.
func TestForceProcessEarlyDeadlineCommitsOnce(t *testing.T) {
	a := artifacts(t)
	tr := &trace.Trace{Arrivals: []trace.Arrival{
		{SampleIdx: 0, At: 0, Deadline: time.Millisecond},
	}}
	cfg := Config{
		Ensemble:     a.Ensemble,
		Refs:         a.Refs,
		Scorer:       a.Scorer,
		Scheduler:    fullPlanScheduler{m: a.Ensemble.M()},
		Rewarder:     a.Profile,
		Estimator:    a.Predictor,
		ScoreDelay:   5 * time.Millisecond, // ready strictly after the deadline
		ForceProcess: true,
		Seed:         1,
	}
	recs := Run(cfg, tr, a.Serve)
	rec := recs[0]
	if rec.Missed {
		t.Fatal("ForceProcess query recorded as missed")
	}
	if rec.Subset.Size() != 1 {
		t.Errorf("early-deadline query committed twice: subset %v, want the single fastest model",
			rec.Subset.Models())
	}
	if rec.Done <= 0 {
		t.Error("no completion time recorded")
	}
}
