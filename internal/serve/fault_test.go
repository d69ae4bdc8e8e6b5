package serve

import (
	"context"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"schemble/internal/core"
	"schemble/internal/dataset"
	"schemble/internal/ensemble"
	"schemble/internal/model"
	"schemble/internal/pipeline"
	"schemble/internal/testutil"
)

// chaosFaults turns on all three fault modes at rates that exercise every
// mitigation without drowning the run.
func chaosFaults() model.FaultConfig {
	return model.FaultConfig{
		TransientRate:   0.08,
		StragglerRate:   0.08,
		StragglerFactor: 12,
		CrashMTBF:       2 * time.Second,
		CrashRecovery:   300 * time.Millisecond,
		Seed:            99,
	}
}

// TestChaosFaultInjectionStress is the acceptance chaos run: ≥500 requests
// through a server with transient errors, stragglers and crashes all
// enabled, under -race (see make chaos). Every request must resolve
// exactly once, none may be lost, degraded results must carry real
// outputs, and no output may ever differ from the deterministic
// aggregation of its reported subset.
func TestChaosFaultInjectionStress(t *testing.T) {
	a := artifacts(t)
	s := New(Config{
		Ensemble:  a.Ensemble,
		Scheduler: &core.DP{Delta: 0.01},
		Rewarder:  a.Profile,
		Estimator: a.Predictor,
		TimeScale: 0.05,
		Seed:      1,
		Faults:    chaosFaults(),
		Tolerance: DefaultTolerance(),
	})
	s.Start(context.Background())
	defer s.Stop()

	const (
		n          = 500
		submitters = 5
	)
	chans := make([]<-chan Result, n)
	var wg sync.WaitGroup
	for w := 0; w < submitters; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < n; i += submitters {
				chans[i] = s.Submit(a.Serve[i%len(a.Serve)], time.Second)
				//schemble:sleep-ok arrival pacing: the gap shapes the workload so commits, retries, and hedges overlap in flight
				time.Sleep(6 * time.Millisecond)
			}
		}()
	}
	wg.Wait()

	var served, degraded, missed, rejected int
	for i, ch := range chans {
		select {
		case r := <-ch:
			switch {
			case r.Rejected:
				rejected++
			case r.Missed:
				missed++
			default:
				if r.Degraded {
					degraded++
				} else {
					served++
				}
				// Degraded or not, a served result must aggregate ≥1 real
				// model output, and faults must never corrupt outputs:
				// the result is bit-identical to deterministically
				// re-running the reported subset.
				if r.Subset == ensemble.Empty {
					t.Errorf("request %d served with empty subset", i)
					continue
				}
				want := a.Ensemble.PredictSubset(a.Serve[i%len(a.Serve)], r.Subset)
				if !reflect.DeepEqual(r.Output, want) {
					t.Errorf("request %d output differs from deterministic subset aggregate", i)
				}
			}
		case <-time.After(15 * time.Second):
			t.Fatalf("request %d never resolved", i)
		}
	}
	// Exactly once: once Stop returns nothing is left that could deliver,
	// and no channel may hold a second result.
	s.Stop()
	for i, ch := range chans {
		assertNoSecondResult(t, i, ch)
	}
	st := s.Stats()
	if st.Submitted != n {
		t.Errorf("Submitted = %d, want %d", st.Submitted, n)
	}
	if st.Resolved != n {
		t.Errorf("lost requests: resolved=%d submitted=%d", st.Resolved, n)
	}
	if st.Served+st.Degraded+st.Missed+st.Rejected != st.Resolved {
		t.Errorf("counter identity broken: %+v", st)
	}
	var faults uint64
	for _, m := range st.Models {
		faults += m.Transient + m.Stragglers + m.Crashes + m.Timeouts
	}
	if faults == 0 {
		t.Error("chaos run observed no faults")
	}
	t.Logf("chaos: served=%d degraded=%d missed=%d rejected=%d faults=%d",
		served, degraded, missed, rejected, faults)
}

// TestServeNoFaultsBitIdentical pins the opt-in guarantee: with zero fault
// and tolerance configs the runtime serves outputs bit-identical to the
// deterministic fault-free prediction path, never degrades, and touches no
// fault machinery.
func TestServeNoFaultsBitIdentical(t *testing.T) {
	a := artifacts(t)
	s := newServer(t, a) // zero Faults / Tolerance
	s.Start(context.Background())
	defer s.Stop()

	for i := 0; i < 30; i++ {
		r := <-s.Submit(a.Serve[i], time.Second)
		if r.Degraded {
			t.Fatalf("request %d degraded with injection off", i)
		}
		if r.Missed {
			continue
		}
		want := a.Ensemble.PredictSubset(a.Serve[i], r.Subset)
		if !reflect.DeepEqual(r.Output, want) {
			t.Fatalf("request %d output not bit-identical to subset aggregate", i)
		}
	}
	st := s.Stats()
	if st.Degraded != 0 {
		t.Errorf("Degraded = %d with injection off", st.Degraded)
	}
	for k, m := range st.Models {
		if m.Breaker != "off" {
			t.Errorf("model %d breaker %q, want off", k, m.Breaker)
		}
		if m.Transient+m.Stragglers+m.Crashes+m.Timeouts+m.Panics+
			m.Retries+m.Hedges+m.HedgeWins+m.Failures != 0 {
			t.Errorf("model %d fault counters non-zero with injection off: %+v", k, m)
		}
	}
}

// TestDefaultToleranceFaultFreeNeverHedgesOrRetries: with every mitigation
// on and no fault injected, a few hundred requests submitted at once — the
// buffer deep, workers queued, the coordinator behind — take no hedge and
// no retry. A hedge is armed only on an attempt the injector marked as a
// straggler, and a retry only after an injected fault or a Predict panic:
// host queueing alone triggers neither.
func TestDefaultToleranceFaultFreeNeverHedgesOrRetries(t *testing.T) {
	a := artifacts(t)
	s := New(Config{
		Ensemble:  a.Ensemble,
		Scheduler: &core.DP{Delta: 0.01},
		Rewarder:  a.Profile,
		Estimator: a.Predictor,
		TimeScale: 0.02,
		Seed:      1,
		Tolerance: DefaultTolerance(),
	})
	s.Start(context.Background())
	defer s.Stop()
	const n = 300
	chans := make([]<-chan Result, n)
	for i := range chans {
		chans[i] = s.Submit(a.Serve[i%len(a.Serve)], 10*time.Second)
	}
	for _, ch := range chans {
		<-ch
	}
	st := s.Stats()
	if st.Resolved != n {
		t.Fatalf("%d of %d requests resolved", st.Resolved, n)
	}
	var executed uint64
	for k, m := range st.Models {
		executed += m.Executed
		if m.Retries+m.Hedges+m.HedgeWins+m.Stragglers+m.Transient+m.Crashes+m.Panics != 0 {
			t.Errorf("model %d took mitigations with no fault injected: %+v", k, m)
		}
	}
	if executed == 0 {
		t.Fatal("no task ran")
	}
	t.Logf("served %d degraded %d missed %d over %d tasks", st.Served, st.Degraded, st.Missed, executed)
}

// TestServeDegradedPartialEnsemble forces one model to straggle far past
// every deadline: requests whose subset includes it must still be served —
// degraded, from the models that completed — instead of missing.
func TestServeDegradedPartialEnsemble(t *testing.T) {
	a := artifacts(t)
	s := New(Config{
		Ensemble:  a.Ensemble,
		Scheduler: &core.DP{Delta: 0.01},
		Rewarder:  a.Profile,
		Estimator: a.Predictor,
		TimeScale: 0.1,
		Seed:      1,
		FaultsPerModel: []model.FaultConfig{
			{}, {}, {StragglerRate: 1, StragglerFactor: 100, Seed: 5},
		},
		Tolerance: ToleranceConfig{TaskTimeout: true, Degrade: true},
	})
	s.Start(context.Background())
	defer s.Stop()

	degraded := 0
	for i := 0; i < 20; i++ {
		select {
		case r := <-s.Submit(a.Serve[i], 600*time.Millisecond):
			if !r.Degraded {
				continue
			}
			degraded++
			if r.Missed {
				t.Errorf("request %d both Degraded and Missed", i)
			}
			if r.Subset == ensemble.Empty || r.Output.Probs == nil {
				t.Errorf("degraded request %d carries no real output", i)
			}
			if r.Subset.Contains(2) {
				t.Errorf("degraded request %d includes the permanently straggling model", i)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("request %d never resolved", i)
		}
	}
	if degraded == 0 {
		t.Error("no request degraded despite a permanently straggling model")
	}
}

// TestServeBreakerAvoidsFailingModel: a model that always fails must trip
// its breaker, after which scheduled subsets avoid it entirely.
func TestServeBreakerAvoidsFailingModel(t *testing.T) {
	a := artifacts(t)
	s := New(Config{
		Ensemble:  a.Ensemble,
		Scheduler: &core.DP{Delta: 0.01},
		Rewarder:  a.Profile,
		Estimator: a.Predictor,
		TimeScale: 0.1,
		Seed:      1,
		FaultsPerModel: []model.FaultConfig{
			{TransientRate: 1, Seed: 9}, {}, {},
		},
		// Cooldown far beyond the test horizon so the breaker stays open.
		Tolerance: ToleranceConfig{BreakerThreshold: 3, BreakerCooldown: time.Hour, Degrade: true},
	})
	s.Start(context.Background())
	defer s.Stop()

	const n = 30
	for i := 0; i < n; i++ {
		select {
		case r := <-s.Submit(a.Serve[i], time.Second):
			if i >= n-10 && !r.Missed && r.Subset.Contains(0) {
				t.Errorf("request %d scheduled onto the broken model after warmup", i)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("request %d never resolved", i)
		}
	}
	st := s.Stats()
	if st.Models[0].Breaker != "open" {
		t.Errorf("model 0 breaker = %q, want open", st.Models[0].Breaker)
	}
	if st.Models[0].BreakerTrips == 0 {
		t.Error("no breaker trips recorded")
	}
	if st.Healthy() {
		t.Error("Stats.Healthy() true with an open breaker")
	}
	if st.Models[0].Transient == 0 {
		t.Error("no transient faults counted on the failing model")
	}
}

// TestServeHedgeRescuesStragglers: with every attempt straggling 50x,
// hedged re-issue must win the race and keep requests inside their
// deadlines.
func TestServeHedgeRescuesStragglers(t *testing.T) {
	a := artifacts(t)
	s := New(Config{
		Ensemble:  a.Ensemble,
		Scheduler: &core.DP{Delta: 0.01},
		Rewarder:  a.Profile,
		Estimator: a.Predictor,
		TimeScale: 0.1,
		Seed:      1,
		Faults:    model.FaultConfig{StragglerRate: 1, StragglerFactor: 50, Seed: 3},
		Tolerance: ToleranceConfig{HedgeFactor: 1},
	})
	s.Start(context.Background())
	defer s.Stop()

	servedInTime := 0
	for i := 0; i < 10; i++ {
		select {
		case r := <-s.Submit(a.Serve[i], 2*time.Second):
			if !r.Missed {
				servedInTime++
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("request %d never resolved", i)
		}
	}
	if servedInTime < 8 {
		t.Errorf("only %d/10 served in time with hedging on", servedInTime)
	}
	st := s.Stats()
	var hedges, wins uint64
	for _, m := range st.Models {
		hedges += m.Hedges
		wins += m.HedgeWins
	}
	if hedges == 0 || wins == 0 {
		t.Errorf("hedging not exercised: hedges=%d wins=%d", hedges, wins)
	}
}

// panicModel always panics in Predict: the satellite bugfix regression —
// a panicking model must fail its task, not its worker.
type panicModel struct{ model.Model }

func (panicModel) Predict(*dataset.Sample) model.Output { panic("synthetic model failure") }

// sizeRewarder prefers larger subsets (rewards stay in [0,1] for the DP's
// quantization), so the broken model keeps being chosen.
type sizeRewarder struct{}

func (sizeRewarder) Reward(_ float64, s ensemble.Subset) float64 {
	return float64(s.Size()) / ensemble.MaxModels
}

func TestServePanicFailsTaskNotWorker(t *testing.T) {
	a := artifacts(t)
	models := model.TextMatchingModels(55)
	models[0] = panicModel{models[0]}
	s := New(Config{
		Ensemble:  ensemble.New(dataset.Classification, models, &ensemble.Average{}, nil),
		Scheduler: &core.DP{Delta: 0.01},
		Rewarder:  sizeRewarder{},
		TimeScale: 0.1,
		Seed:      1,
	})
	s.Start(context.Background())
	defer s.Stop()

	// If the panic killed the worker, its queue would strand and later
	// requests would hang until their deadlines.
	for i := 0; i < 5; i++ {
		select {
		case r := <-s.Submit(a.Serve[i], time.Second):
			if r.Rejected {
				t.Fatalf("request %d rejected", i)
			}
			if r.Subset.Contains(0) {
				t.Errorf("request %d output claims the panicking model contributed", i)
			}
			if !r.Missed && r.Output.Probs == nil {
				t.Errorf("request %d served without output", i)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("request %d hung — did the panic kill the worker?", i)
		}
	}
	st := s.Stats()
	if st.Models[0].Panics == 0 {
		t.Error("panics not counted as faults")
	}
	if st.Models[0].Failures == 0 {
		t.Error("panicking tasks not recorded as failures")
	}
}

// TestServeDrainUnderFaultsNoLeaks drains while injected faults, retries
// and hedges are in flight: committed work must still resolve exactly
// once, and every runtime goroutine (workers, coordinator, timers) must be
// gone afterwards.
func TestServeDrainUnderFaultsNoLeaks(t *testing.T) {
	a := artifacts(t)
	baseline := runtime.NumGoroutine()

	// Under chaos faults an unlucky early crash can black out the whole
	// batch — every request misses before anything serves — which makes the
	// "drain finishes committed work" half of this scenario vacuous rather
	// than wrong. Retry with a fresh server and seed when that happens
	// instead of flaking; the exactly-once and lossless-resolution
	// invariants are asserted on every attempt either way.
	served := false
	for seed := uint64(2); seed < 6 && !served; seed++ {
		served = drainUnderFaultsOnce(t, a, seed)
	}
	if !served {
		t.Error("drain finished no committed work under faults on any attempt")
	}

	// All runtime goroutines (workers and the coordinator) must
	// unwind back to the pre-Start baseline.
	testutil.Wait(5*time.Second, func() bool { return runtime.NumGoroutine() <= baseline })
	if g := runtime.NumGoroutine(); g > baseline {
		t.Errorf("goroutine leak: %d running, baseline %d", g, baseline)
	}
}

// drainUnderFaultsOnce runs one submit→drain round and reports whether any
// request was served (fully or degraded) — i.e. whether the drain had real
// committed work to finish.
func drainUnderFaultsOnce(t *testing.T, a *pipeline.Artifacts, seed uint64) bool {
	s := New(Config{
		Ensemble:  a.Ensemble,
		Scheduler: &core.DP{Delta: 0.01},
		Rewarder:  a.Profile,
		Estimator: a.Predictor,
		// A laxer compression than the other chaos tests: at 0.1 the 800ms
		// virtual deadline is 80ms of wall clock, which race-detector
		// scheduling noise alone can eat, blacking out the whole batch.
		TimeScale: 0.3,
		Seed:      seed,
		Faults:    chaosFaults(),
		Tolerance: DefaultTolerance(),
	})
	s.Start(context.Background())
	defer s.Stop()

	const n = 40
	chans := make([]<-chan Result, n)
	for i := 0; i < n; i++ {
		chans[i] = s.Submit(a.Serve[i], 800*time.Millisecond)
	}
	// Wait for the first served result before draining, so the drain has
	// both finished and still-committed work to account for; a fixed sleep
	// here flaked under race-detector load when no request beat its
	// (wall-clock tiny) deadline before the drain started. Proceed on
	// timeout: the drain assertions below hold either way.
	testutil.Wait(5*time.Second, func() bool {
		st := s.Stats()
		return st.Served+st.Degraded > 0
	})

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	finished := 0
	for i, ch := range chans {
		select {
		case r := <-ch:
			if !r.Missed {
				finished++
			}
		default:
			t.Fatalf("request %d unresolved after Drain returned", i)
		}
	}
	// Exactly once, even with retries/hedges racing the drain: Drain has
	// returned, so nothing is left that could deliver a second result.
	for i, ch := range chans {
		assertNoSecondResult(t, i, ch)
	}
	if st := s.Stats(); st.Resolved != n {
		t.Errorf("resolved %d/%d under drain", st.Resolved, n)
	}
	return finished > 0
}
