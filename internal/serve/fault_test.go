package serve

import (
	"cmp"
	"context"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"schemble/internal/adapt"
	"schemble/internal/core"
	"schemble/internal/dataset"
	"schemble/internal/ensemble"
	"schemble/internal/model"
	"schemble/internal/obsv"
	"schemble/internal/pipeline"
	"schemble/internal/rcache"
	"schemble/internal/testutil"
	"schemble/internal/trace"
)

// chaosFaults turns on all three fault modes at rates that exercise every
// mitigation without drowning the run. The runtime learns of a crash only
// from the tasks it fails, so a crash lasts long enough for
// breakerThreshold of them to open the model's breaker.
func chaosFaults() model.FaultConfig {
	return model.FaultConfig{
		TransientRate:   0.08,
		StragglerRate:   0.08,
		StragglerFactor: 12,
		CrashMTBF:       2 * time.Second,
		CrashRecovery:   600 * time.Millisecond,
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

// TestServeNoFaultsBitIdentical: with no fault injected the runtime serves
// outputs bit-identical to the deterministic fault-free prediction path,
// never degrades, and the tolerance layer takes no action: every breaker
// stays closed and no fault counter moves. The requests arrive a second
// apart on the frozen clock, each meeting an idle fleet.
func TestServeNoFaultsBitIdentical(t *testing.T) {
	a := artifacts(t)
	s := newServer(t, a) // zero Faults
	for i, r := range replay(t, s, spaced(30, time.Second, time.Second), a.Serve) {
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
	var executed uint64
	for k, m := range st.Models {
		executed += m.Executed
		if m.Breaker != "closed" || m.BreakerTrips != 0 {
			t.Errorf("model %d breaker %q after %d trips, want closed, 0", k, m.Breaker, m.BreakerTrips)
		}
		if m.Transient+m.Stragglers+m.Crashes+m.Timeouts+m.Panics+
			m.Retries+m.Hedges+m.HedgeWins+m.Failures != 0 {
			t.Errorf("model %d fault counters non-zero with injection off: %+v", k, m)
		}
	}
	if executed != 90 {
		t.Errorf("executed %d tasks, want 90", executed)
	}
}

// TestFaultFreeNeverHedgesOrRetries: with no fault injected, a few hundred
// requests submitted at one instant of the frozen clock — the buffer deep,
// workers queued, the coordinator behind — take no hedge and no retry. A
// hedge is armed only on an attempt whose drawn latency passes hedgeFactor
// times the model's mean, which the models' jitter never reaches, and a
// retry only after an injected fault or a Predict panic: host queueing
// alone triggers neither.
func TestFaultFreeNeverHedgesOrRetries(t *testing.T) {
	a := artifacts(t)
	cfg := baseConfig(a)
	cfg.TimeScale = 0.02
	s := New(cfg)
	const n = 300
	replay(t, s, spaced(n, 0, 10*time.Second), a.Serve)
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
	if executed != 219 {
		t.Errorf("executed %d tasks, want 219", executed)
	}
	t.Logf("served %d degraded %d missed %d over %d tasks", st.Served, st.Degraded, st.Missed, executed)
}

// TestFaultToleranceNeedsNoConfig: the tolerance layer has no off switch. A
// Config that sets nothing but the deployment and injected transient faults
// retries the failed attempts, and every breaker reads one of its three
// states, never "off".
func TestFaultToleranceNeedsNoConfig(t *testing.T) {
	a := artifacts(t)
	cfg := baseConfig(a)
	cfg.Faults = model.FaultConfig{TransientRate: 0.3, Seed: 5}
	s := New(cfg)
	replay(t, s, spaced(30, time.Second, time.Second), a.Serve)
	var transient, retries uint64
	for k, m := range s.Stats().Models {
		transient += m.Transient
		retries += m.Retries
		if m.Breaker != "closed" && m.Breaker != "open" && m.Breaker != "half-open" {
			t.Errorf("model %d breaker %q", k, m.Breaker)
		}
	}
	if transient == 0 || retries == 0 {
		t.Errorf("%d transient faults, %d retries; want both above 0", transient, retries)
	}
}

// heldModel holds every Predict until the test lets it go, parked on the
// test clock so that the frozen clock moves on past it.
type heldModel struct {
	model.Model
	srv     *Server
	held    atomic.Bool
	release chan struct{}
}

func (h *heldModel) Predict(s *dataset.Sample) model.Output {
	select {
	case <-h.release:
	default:
		h.held.Store(true)
		h.srv.clk.(*testClock).hold(1)
		<-h.release
	}
	return h.Model.Predict(s)
}

// let lets every Predict through, the held one and all to come; the
// runtime must be quiet. The model runs one replica, so at most one is held.
func (h *heldModel) let() {
	if h.held.Load() {
		h.srv.clk.(*testClock).hold(-1)
	}
	close(h.release)
}

// TestServeDegradedPartialEnsemble holds one model's first task far past
// every deadline — where no cutoff reaches it and no hedge rescues it:
// requests whose subset includes that model must still be served at their
// deadline — degraded, from the models that completed — instead of
// missing.
func TestServeDegradedPartialEnsemble(t *testing.T) {
	a := artifacts(t)
	models := append([]model.Model(nil), a.Ensemble.Models...)
	held := &heldModel{Model: models[2], release: make(chan struct{})}
	models[2] = held
	cfg := baseConfig(a)
	cfg.Ensemble = ensemble.New(a.Ensemble.Task, models, a.Ensemble.Agg, a.Ensemble.Weights)
	s := New(cfg)
	held.srv = s
	const budget = 600 * time.Millisecond
	clk, chans := play(t, s, spaced(20, 700*time.Millisecond, budget), a.Serve)
	clk.advance(t, time.Hour) // past every deadline
	held.let()

	degraded := 0
	for i, r := range collect(t, clk, chans) {
		if !r.Degraded {
			continue
		}
		degraded++
		if r.Missed || r.Latency > budget {
			t.Errorf("request %d degraded after %v (missed %v), past its %v deadline", i, r.Latency, r.Missed, budget)
		}
		if r.Subset == ensemble.Empty || r.Output.Probs == nil {
			t.Errorf("degraded request %d carries no real output", i)
		}
		if r.Subset.Contains(2) {
			t.Errorf("degraded request %d includes the held model", i)
		}
	}
	if degraded == 0 {
		t.Error("no request degraded despite a model held past every deadline")
	}
	t.Logf("%d of %d degraded", degraded, len(chans))
}

// TestServeBreakerAvoidsFailingModel: a model that always fails must trip
// its breaker, after which no subset contains it until the cooldown ends,
// and a failed half-open probe re-opens it. The clock moves in 1ms steps
// and the breaker is read at each: model 0's one replica fails its tasks
// either together or at least a backoff apart, so every instant it
// (re)opened is seen. Each commit is read off its decision trace.
func TestServeBreakerAvoidsFailingModel(t *testing.T) {
	a := artifacts(t)
	var mu sync.Mutex
	var traces []obsv.DecisionTrace
	cfg := baseConfig(a)
	cfg.TimeScale = 1
	cfg.Obs = obsv.Config{Sink: func(tr obsv.DecisionTrace) {
		mu.Lock()
		traces = append(traces, tr)
		mu.Unlock()
	}}
	s := New(cfg)
	s.faulty[0] = model.NewFaulty(cfg.Ensemble.Models[0], alwaysFail) // model 0 alone fails
	clk := useTestClock(s, true)
	s.Start(context.Background())
	t.Cleanup(s.Stop)

	tr := spaced(100, 30*time.Millisecond, time.Second)
	const tick = time.Millisecond
	var (
		chans       []<-chan Result
		opened      []time.Duration // every instant model 0's breaker (re)opened
		last        breakerState
		probeFailed bool
		sawOpen     bool
	)
	for v := time.Duration(0); v <= tr.Arrivals[len(tr.Arrivals)-1].Deadline; v += tick {
		clk.advance(t, v-clk.now())
		for len(chans) < len(tr.Arrivals) && tr.Arrivals[len(chans)].At == v {
			arr := tr.Arrivals[len(chans)]
			chans = append(chans, s.Submit(a.Serve[arr.SampleIdx], arr.Deadline-arr.At))
			clk.advance(t, 0)
		}
		s.breakerMu.Lock()
		b := s.breakers[0]
		s.breakerMu.Unlock()
		if b.openedAt != last.openedAt {
			opened = append(opened, b.openedAt)
		}
		// A trip from any state but closed is a failed half-open probe.
		if b.trips > last.trips && last.state != breakerClosed && b.state == breakerOpen {
			probeFailed = true
		}
		if b.state == breakerOpen && !sawOpen {
			sawOpen = true
			if st := s.Stats(); st.Models[0].Breaker != "open" || st.Healthy() {
				t.Errorf("breaker open: Stats reads %q, healthy %v", st.Models[0].Breaker, st.Healthy())
			}
		}
		last = b
	}
	collect(t, clk, chans)
	if len(opened) == 0 {
		t.Fatal("the always-failing model never tripped its breaker")
	}

	mu.Lock()
	defer mu.Unlock()
	probes := 0
	for _, dt := range traces {
		if !slices.Contains(dt.Subset, 0) {
			continue
		}
		for _, o := range opened {
			if dt.Committed >= o && dt.Committed < o+breakerCooldown {
				t.Errorf("request %d committed onto model 0 at %v, inside the cooldown of the breaker opened at %v",
					dt.ID, dt.Committed, o)
			}
		}
		if dt.Committed >= opened[0] {
			probes++
		}
	}
	if probes == 0 {
		t.Error("no half-open probe was committed after the first trip")
	}
	if !probeFailed {
		t.Error("no failed half-open probe re-opened the breaker")
	}
	if st := s.Stats(); st.Models[0].BreakerTrips < 2 || st.Models[0].Transient == 0 {
		t.Errorf("model 0: %d trips, %d transient faults", st.Models[0].BreakerTrips, st.Models[0].Transient)
	}
	t.Logf("%d openings, %d commits onto model 0 after the first", len(opened), probes)
}

// TestServeHedgeRescuesStragglers: with every attempt straggling 50x,
// hedged re-issue must win the race and keep requests inside their
// deadlines.
func TestServeHedgeRescuesStragglers(t *testing.T) {
	a := artifacts(t)
	cfg := baseConfig(a)
	cfg.Faults = model.FaultConfig{StragglerRate: 1, StragglerFactor: 50, Seed: 3}
	s := New(cfg)
	servedInTime := 0
	for _, r := range replay(t, s, spaced(10, 2*time.Second, 2*time.Second), a.Serve) {
		if !r.Missed {
			servedInTime++
		}
	}
	if servedInTime != 10 {
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

// chaosRun is what one replay of the chaos trace leaves behind, for a
// second replay to repeat.
type chaosRun struct {
	stats   Stats
	results []Result
	traces  []obsv.DecisionTrace // by ID
}

// replayChaos replays the chaos trace on the frozen clock through a server
// under chaos faults and the tolerance layer, built with tweak: 200 requests
// 40ms apart, cycling through 40 samples (and, classed, through the
// classes), each with a 400ms budget. It fails the test unless each request
// resolves exactly once, the runtime's books per class partition what was
// submitted and agree with what the callers received, no commit puts work
// on a model its pass had blocked behind a breaker, and the chaos both
// faulted and blocked.
func replayChaos(t *testing.T, a *pipeline.Artifacts, tweak func(*Config)) chaosRun {
	t.Helper()
	var mu sync.Mutex
	var traces []obsv.DecisionTrace
	cfg := baseConfig(a)
	cfg.Faults = chaosFaults()
	cfg.Obs = obsv.Config{Sink: func(tr obsv.DecisionTrace) {
		mu.Lock()
		traces = append(traces, tr)
		mu.Unlock()
	}}
	tweak(&cfg)
	s := New(cfg)
	tr := &trace.Trace{}
	for i := 0; i < 200; i++ {
		at := time.Duration(i) * 40 * time.Millisecond
		arr := trace.Arrival{SampleIdx: i % 40, At: at, Deadline: at + 400*time.Millisecond}
		if len(cfg.Classes) > 0 {
			arr.Class = cfg.Classes[i%len(cfg.Classes)].Name
		}
		tr.Arrivals = append(tr.Arrivals, arr)
	}
	clk, chans := play(t, s, tr, a.Serve)
	results := collect(t, clk, chans)
	agg := aggregateByClass(tr, results)
	s.Stop()
	for i, ch := range chans {
		assertNoSecondResult(t, i, ch)
	}

	st := s.Stats()
	books := st.Classes
	if len(books) == 0 {
		books = []ClassStats{{Submitted: st.Submitted, Served: st.Served, Degraded: st.Degraded, Missed: st.Missed, Rejected: st.Rejected}}
	}
	if st.Submitted != uint64(len(chans)) || st.Resolved != st.Submitted {
		t.Errorf("submitted %d, resolved %d, of %d requests", st.Submitted, st.Resolved, len(chans))
	}
	for _, cs := range books {
		got := classAgg{int(cs.Submitted), int(cs.Rejected), int(cs.Missed), int(cs.Degraded), int(cs.Served)}
		if cs.Served+cs.Degraded+cs.Missed+cs.Rejected != cs.Submitted || agg[cs.Name] == nil || got != *agg[cs.Name] {
			t.Errorf("class %q: books %+v, callers received %+v", cs.Name, got, agg[cs.Name])
		}
	}

	mu.Lock()
	defer mu.Unlock()
	slices.SortFunc(traces, func(x, y obsv.DecisionTrace) int { return cmp.Compare(x.ID, y.ID) })
	blocked := 0
	for _, dt := range traces {
		if len(dt.Blocked) > 0 {
			blocked++
		}
		for _, k := range dt.Blocked {
			if slices.Contains(dt.Subset, k) {
				t.Errorf("request %d committed onto %v with model %d blocked at its pass", dt.ID, dt.Subset, k)
			}
		}
	}
	var faults uint64
	for _, m := range st.Models {
		faults += m.Transient + m.Stragglers + m.Crashes
	}
	if faults == 0 || blocked == 0 {
		t.Errorf("chaos exercised too little: %d faults, %d commits around a blocked model", faults, blocked)
	}
	t.Logf("served %d degraded %d missed %d rejected %d; %d faults, %d commits around a blocked model",
		st.Served, st.Degraded, st.Missed, st.Rejected, faults, blocked)
	return chaosRun{stats: st, results: results, traces: traces}
}

// replayChaosTwice replays the chaos trace twice through servers built with
// tweak and fails the test unless the second run repeats the first
// (sameAs). What a task draws does not depend on the worker that runs it,
// so only what a run reads off the order in which the host runs goroutines
// woken at one instant may move, and sameRun leaves that out.
func replayChaosTwice(t *testing.T, a *pipeline.Artifacts, tweak func(*Config)) Stats {
	t.Helper()
	first, second := replayChaos(t, a, tweak), replayChaos(t, a, tweak)
	first.sameRun()
	second.sameRun()
	first.sameAs(t, second, "two replays")
	return first.stats
}

// sameAs fails the test unless o, reduced by sameRun as r is, repeats r: the
// same result per request, the same Stats and the same decision traces.
func (r *chaosRun) sameAs(t *testing.T, o chaosRun, what string) {
	t.Helper()
	for i := range r.results {
		if !reflect.DeepEqual(r.results[i], o.results[i]) {
			t.Errorf("%s: request %d: %+v, then %+v", what, i, r.results[i], o.results[i])
			break
		}
	}
	if !reflect.DeepEqual(r.stats, o.stats) {
		t.Errorf("%s: Stats differ:\n%+v\n%+v", what, r.stats, o.stats)
	}
	if len(r.traces) != len(o.traces) {
		t.Fatalf("%s: %d decision traces, then %d", what, len(r.traces), len(o.traces))
	}
	for i := range r.traces {
		if !reflect.DeepEqual(r.traces[i], o.traces[i]) {
			t.Errorf("%s: decision trace %d differs:\n%+v\n%+v", what, r.traces[i].ID, r.traces[i], o.traces[i])
			break
		}
	}
}

// sameRun reduces r to what two replays on the frozen clock must agree on
// by leaving out what is host order:
//   - which parked replica of a pool takes a task: the per-replica
//     breakdowns (ReplicaExecuted, ReplicaFailures) count by their
//     per-model sums;
//   - whether a worker woken by a pass takes its task before the same pass
//     reads the queue depths for a later commit's trace (QueueDepths), or
//     parks before the coordinator has handled its completion (Starved);
//   - whether a completion posted at the instant a turn begins lands in
//     that turn or the next, which moves the turn count (TurnEvents,
//     PassTime's count) and the load the passes smooth (Load).
//
// The last two show under the race detector's scheduling, seldom without.
func (r *chaosRun) sameRun() {
	sum := func(xs []uint64) []uint64 {
		var n uint64
		for _, x := range xs {
			n += x
		}
		return []uint64{n}
	}
	st := &r.stats
	for k := range st.Models {
		st.Models[k].ReplicaExecuted = sum(st.Models[k].ReplicaExecuted)
		st.Models[k].ReplicaFailures = sum(st.Models[k].ReplicaFailures)
		st.Models[k].Starved = obsv.HistogramSnapshot{}
	}
	st.TurnEvents, st.PassTime, st.Load = obsv.HistogramSnapshot{}, obsv.HistogramSnapshot{}, 0
	for i := range r.traces {
		r.traces[i].QueueDepths = nil
	}
}

// chaosFeature is a named tweak of a chaos replay's server.
type chaosFeature struct {
	name  string
	tweak func(*Config)
}

// chaosFeatures are the opt-in features the chaos replays run the tolerance
// layer against.
func chaosFeatures(t *testing.T, a *pipeline.Artifacts) []chaosFeature {
	return []chaosFeature{
		{"classes", func(c *Config) { c.Classes = testClasses() }},
		{"cache", func(c *Config) { c.Cache = rcache.Config{Keyer: testKeyer(t, a, 16), DifficultyMax: 1} }},
		{"adapt", func(c *Config) { c.Adapt = adapt.Config{Enable: true} }},
		{"replicas", func(c *Config) { c.Replicas = []int{2, 2, 2} }},
	}
}

// TestChaosReplayIsOneRun: on the frozen clock a run is one run. Every
// attempt draws its latency, hedge, backoff and fault from a key of its own
// (the request, the model, the attempt), so workers woken at one instant
// draw the same whatever order the host runs them in, and the chaos trace
// replayed twice — bare and with each opt-in feature alone — gives the
// same Stats, results and decision traces.
func TestChaosReplayIsOneRun(t *testing.T) {
	a := artifacts(t)
	rows := append([]chaosFeature{{"bare", func(*Config) {}}}, chaosFeatures(t, a)...)
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) { replayChaosTwice(t, a, row.tweak) })
	}
}

// TestReplayIgnoresTimeScale: on the virtual clock nothing is scaled, so
// the chaos trace's bare row replayed at TimeScale 1, 0.05, 0.7 and 3 is one
// run: the same results, Stats and decision traces at every scale.
func TestReplayIgnoresTimeScale(t *testing.T) {
	a := artifacts(t)
	var first chaosRun
	for i, scale := range []float64{1, 0.05, 0.7, 3} {
		run := replayChaos(t, a, func(c *Config) { c.TimeScale = scale })
		run.sameRun()
		if i == 0 {
			first = run
			continue
		}
		first.sameAs(t, run, fmt.Sprintf("TimeScale 1 against %v", scale))
	}
}

// TestFaultToleranceAgainstFeatures runs the tolerance layer under chaos
// faults against every pair of the opt-in features — request classes, the
// result cache, online adaptation and replica pools — and all four at
// once, each row replayed twice on the frozen clock (replayChaosTwice):
// every property replayChaos checks holds in both runs, the two agree, and
// the outcome counts are the ones pinned here, so a change that moves a
// decision under faults shows in this table.
func TestFaultToleranceAgainstFeatures(t *testing.T) {
	a := artifacts(t)
	// served, degraded, missed, rejected
	want := map[string][4]uint64{
		"classes+cache":                {190, 7, 3, 0},
		"classes+adapt":                {159, 22, 19, 0},
		"classes+replicas":             {155, 29, 16, 0},
		"cache+adapt":                  {190, 7, 3, 0},
		"cache+replicas":               {190, 10, 0, 0},
		"adapt+replicas":               {151, 33, 16, 0},
		"classes+cache+adapt+replicas": {190, 10, 0, 0},
	}
	features := chaosFeatures(t, a)
	var rows []chaosFeature
	for i, f := range features {
		for _, g := range features[i+1:] {
			rows = append(rows, chaosFeature{f.name + "+" + g.name, func(c *Config) { f.tweak(c); g.tweak(c) }})
		}
	}
	rows = append(rows, chaosFeature{"classes+cache+adapt+replicas", func(c *Config) {
		for _, f := range features {
			f.tweak(c)
		}
	}})
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			st := replayChaosTwice(t, a, r.tweak)
			if got := [4]uint64{st.Served, st.Degraded, st.Missed, st.Rejected}; got != want[r.name] {
				t.Errorf("served/degraded/missed/rejected = %v, want %v", got, want[r.name])
			}
		})
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
	// The requests arrive a second apart on the frozen clock, each meeting
	// an idle fleet. Had the panic killed model 0's one worker, the clock
	// would never find the runtime quiet again.
	for i, r := range replay(t, s, spaced(5, time.Second, time.Second), a.Serve) {
		if r.Rejected || r.Missed {
			t.Fatalf("request %d rejected or missed: %+v", i, r)
		}
		if r.Subset.Contains(0) {
			t.Errorf("request %d output claims the panicking model contributed", i)
		}
		if r.Output.Probs == nil {
			t.Errorf("request %d served without output", i)
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
