// Package serve is the real-time concurrent counterpart of the discrete
// event simulator: a pool of replica worker goroutines per deployed base
// model (Config.Replicas; one each by default) sharing that model's task
// queue, a coordinator goroutine that drives the decision pipeline both
// share (internal/engine: arrival path, query buffer, planning pass,
// settlement) against per-replica capacity (core.Capacity), and
// channel-based task dispatch.
//
// Dispatch is work-conserving: a query commits once every model of its
// subset has room, a replica running out of committed work within one task
// time (stageable). So at most one task waits staged behind each running
// one, which a replica that finishes starts at once — while the coordinator
// still plans the pass that completion triggered — and the rest of the wait
// is in the buffer, where the query can still be re-planned. The simulator
// commits once some model of the subset is idle, having no planning cost to
// hide; the two agree whenever an arrival meets an idle fleet.
//
// The coordinator works in turns: it handles the event that woke it and
// every event already queued behind it, then plans once, and the engine
// commits in the plan's own earliest-deadline-first order — the events a
// long pass let pile up cost one pass, not one each.
//
// A replica runs one task at a time. Model execution is simulated by
// sleeping for the model's (scaled) latency, so examples can replay a
// trace in compressed wall-clock time while exercising the same
// scheduling logic the paper deploys. With every replica count at 1, the
// runtime is bit-identical to the original single-worker design.
//
// Lifecycle: New -> Start(ctx) -> Submit()... -> Drain/Stop. Every request
// moves through an explicit state machine
//
//	submitted -> scored -> buffered -> committed -> resolved
//
// and resolves exactly once: with its aggregated output, as a deadline
// miss, or as an explicit rejection (Result.Rejected) when the runtime is
// saturated, draining, or stopped. The coordinator owns every deadline: each
// turn, before it plans, resolves the buffered requests whose deadline has
// passed, and one timer wakes it for the earliest deadline still to come.
// Every instant the runtime reads or waits for comes from its one clock.
// Backpressure is bounded and visible:
// Submit rejects instead of blocking when the event loop is full, and
// dispatch rejects instead of leaking when a model's task queue is full.
// Stop abandons committed work; Drain finishes it first.
//
// The runtime also survives an unreliable substrate. Config.Faults injects
// deterministic transient errors, stragglers and model crashes via
// model.Faulty; Config.Tolerance.Enable switches on every mitigation at
// once: bounded retries with jittered backoff, hedged re-issue of
// straggling attempts, per-task deadline timeouts, a per-model circuit
// breaker the scheduler consults so subsets avoid failing models, and
// partial-ensemble degradation — a request whose deadline arrives with at
// least one (but not all) subset outputs resolves with Result.Degraded
// instead of missing. Both default to off, in which case the runtime
// behaves exactly like the fault-free original; a panicking Predict is
// always contained (the task fails, the worker survives).
package serve

import (
	"context"
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"schemble/internal/adapt"
	"schemble/internal/core"
	"schemble/internal/dataset"
	"schemble/internal/discrepancy"
	"schemble/internal/engine"
	"schemble/internal/ensemble"
	"schemble/internal/model"
	"schemble/internal/obsv"
	"schemble/internal/qos"
	"schemble/internal/rcache"
	"schemble/internal/rng"
)

// ErrNotStarted is returned by Drain when Start was never called.
var ErrNotStarted = errors.New("serve: server not started")

// Config configures a Server.
type Config struct {
	Ensemble *ensemble.Ensemble
	// Scheduler and Rewarder drive subset selection (the Schemble path).
	Scheduler core.Scheduler
	Rewarder  core.Rewarder
	// Estimator predicts discrepancy scores; nil scores everything 0.5.
	Estimator discrepancy.ScoreEstimator
	// TimeScale compresses simulated model latencies: 0.1 runs 10x faster
	// than real time. Defaults to 1.
	TimeScale float64
	// QueueDepth bounds each model's task channel (default 1024). When a
	// model's queue is full at dispatch time the request is rejected; when
	// the event loop is full Submit rejects up front.
	QueueDepth int
	// Replicas[k] is how many worker goroutines serve model k from its
	// shared task queue (the model's replica pool). Missing or
	// non-positive entries mean one replica. The scheduler sees every
	// replica's availability (core.Capacity), so adding replicas widens
	// the set of deadline-feasible plans instead of merely draining the
	// queue faster.
	Replicas []int
	// Seed, with the request's submission number, the model and the
	// attempt's index, keys every draw a task attempt makes (latency, hedge
	// latency, backoff jitter), whichever worker runs it and whenever.
	Seed uint64

	// Faults injects deterministic failures into every model's task
	// execution (zero value: no injection), each attempt's drawn from
	// Faults.Seed and the same key; a model's crash window is the one fault
	// state attempts share. Durations are virtual, like model latencies.
	Faults model.FaultConfig
	// Tolerance switches the fault-tolerant execution layer: every
	// mitigation on (DefaultTolerance) or none. The zero value leaves the
	// runtime bit-identical to the fault-free worker loop.
	Tolerance ToleranceConfig

	// Obs opts into request-level observability: decision traces in a
	// bounded ring buffer plus per-outcome latency histograms. The zero
	// value disables every hook and keeps the hot path bit-identical
	// (observability makes no random draw).
	Obs obsv.Config

	// Classes declares the request classes (tenant/priority tiers) and
	// switches the runtime into classed mode: SubmitClass selects a class
	// per request, class deadlines back requests submitted without one,
	// and under overload the admission controller sheds and degrades the
	// lowest-priority classes first (see qos). Empty (the default) keeps
	// the runtime classless and bit-identical to the pre-class design —
	// only the load estimator runs, feeding RetryAfterSeconds.
	Classes []Class
	// Admission tunes the overload controller; the zero value means
	// defaults, with service capacity derived from the deployed models'
	// mean latencies and replica counts.
	Admission AdmissionConfig

	// Cache opts into the difficulty-gated result cache (internal/rcache):
	// easy queries (score at or below the configured threshold) whose
	// centroid key holds a fresh entry resolve immediately from the cache
	// — a zero-cost plan that never reaches the scheduler — and cacheable
	// misses fill the entry when they resolve cleanly. The lookup comes
	// before admission control, so a hit is never shed and spends no
	// class token. The zero value disables caching and keeps every
	// request on the pre-cache code paths bit-identically.
	Cache rcache.Config

	// Adapt opts into the online-adaptation layer (internal/adapt): live
	// per-model/per-replica latency quantile sketches feed the
	// scheduler's cost vector and the hedging threshold instead of the
	// frozen profiling numbers, and a windowed detector emits drift
	// events. The zero value disables adaptation and keeps every request
	// on the frozen-profile code paths bit-identically.
	Adapt adapt.Config
}

// Result is the outcome of one request.
type Result struct {
	Output model.Output
	// Subset names the models whose outputs were aggregated into Output —
	// for degraded results, the models that actually completed.
	Subset ensemble.Subset
	// Missed is true when no output was produced in time (deadline miss,
	// all tasks failed, shutdown, or rejection).
	Missed bool
	// Rejected is true when the runtime explicitly refused the request —
	// event-loop or model-queue saturation, draining, or already stopped —
	// rather than failing to meet its deadline. Rejected implies Missed.
	Rejected bool
	// Degraded is true when the request was served (Missed is false) with
	// reduced quality: from a non-empty strict subset of its committed
	// models (the rest failed or were still running at the deadline), or
	// from a plan the degradation ladder capped because the request's
	// class was above full service at commit time. Degraded results
	// always carry at least one real model output.
	Degraded bool
	// Cached is true when the result was served from the result cache
	// without dispatching any model work; Subset names the models that
	// produced the cached answer.
	Cached  bool
	Latency time.Duration
}

// reqState is a request's lifecycle stage. Transitions are guarded by the
// request mutex and move strictly forward; stateResolved is terminal and
// reachable from every stage.
type reqState uint8

const (
	stateSubmitted reqState = iota // accepted by Submit
	stateScored                    // difficulty score attached
	stateBuffered                  // waiting in the coordinator's buffer
	stateCommitted                 // subset locked, tasks dispatched
	stateResolved                  // Result delivered exactly once
)

// request tracks one in-flight query.
type request struct {
	// seq is the submission number, from 1: the trace ID and attemptKey's.
	seq uint64
	// Query is the decision engine's view. SubmitClass fills it before the
	// request is shared (the event-channel send orders those writes); from
	// then on only the coordinator touches it: ID when the request is
	// buffered, Level and Subset, under mu, when it is committed.
	engine.Query
	sample *dataset.Sample
	// arrived and wallDeadline are Query.Arrival and Query.Deadline on the
	// server's clock.
	arrived      time.Time
	wallDeadline time.Time

	mu sync.Mutex
	//schemble:guardedby mu lifecycle state machine
	state reqState
	//schemble:guardedby mu per-model output slots
	outs []model.Output
	//schemble:guardedby mu outstanding task count
	remaining int
	// ok is the mask of models whose task succeeded; failed counts tasks
	// that failed permanently (retries exhausted, crash, timeout, panic).
	//schemble:guardedby mu success mask
	ok ensemble.Subset
	//schemble:guardedby mu permanent-failure count
	failed int
	done   chan Result

	// tr is the request's decision trace, nil when observability is off.
	// Creation-time fields are written before the request is shared,
	// commit- and resolve-time fields under mu; the mitigation counters are
	// atomics because workers bump them while the coordinator may resolve.
	tr          *obsv.DecisionTrace
	obsRetries  atomic.Uint32
	obsHedges   atomic.Uint32
	obsTimeouts atomic.Uint32
}

// advance moves the lifecycle forward; it never regresses and never leaves
// the terminal resolved state.
func (r *request) advance(to reqState) {
	r.mu.Lock()
	if r.state < to && r.state != stateResolved {
		r.state = to
	}
	r.mu.Unlock()
}

func (r *request) isResolved() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state == stateResolved
}

// modelCounters are one model's fault and mitigation counters, written by
// the model's worker goroutine and read by Stats.
type modelCounters struct {
	executed   atomic.Uint64 // tasks whose attempt chain ran
	failures   atomic.Uint64 // tasks that failed permanently
	transient  atomic.Uint64 // transient faults observed
	stragglers atomic.Uint64 // straggling attempts observed
	crashes    atomic.Uint64 // attempts hitting a dead/crashing model
	timeouts   atomic.Uint64 // attempts abandoned at the request deadline
	panics     atomic.Uint64 // Predict panics contained
	retries    atomic.Uint64 // retry attempts issued
	hedges     atomic.Uint64 // hedge attempts issued
	hedgeWins  atomic.Uint64 // hedge attempts that finished first
	// backlog is the model's committed work as the coordinator's last pass
	// fed it to the overload controller (engine.Work), in virtual
	// nanoseconds.
	backlog atomic.Int64
	// overshoot is how long past its asked-for duration each completed
	// model wait returned, in wall time: one observation per wait that ran
	// to its wake, so per executed task in a fault-free run.
	// Buckets run from 5µs by 1.5x to ~17ms, so both the tail sleep's tens
	// of microseconds and a runtime timer's full millisecond interpolate.
	overshoot *obsv.Histogram
	// starved is how long, in wall time, a replica of the model sat idle
	// with queries buffered before its next task arrived: one observation
	// per wait that began with an empty queue and a non-empty buffer (see
	// nextTask). Buckets run from 10µs by 1.6x to ~0.5s: a planning pass
	// is tens of microseconds to tens of milliseconds, and a wait for a
	// query this model can serve in time can outlast many passes.
	starved *obsv.Histogram
}

// replicaCounters are one replica's health counters. busy is 1 from the
// moment the replica takes a task off its model's queue until the task's
// completion event is sent, 0 otherwise; executed/failures break the
// model's totals down per replica so the tolerance layer's effects are
// attributable to individual replicas.
type replicaCounters struct {
	busy     atomic.Int32
	executed atomic.Uint64
	failures atomic.Uint64
}

// Server is a running ensemble-serving instance.
type Server struct {
	cfg    Config
	clk    clock
	tol    ToleranceConfig
	scale  float64
	taskCh []chan *task
	events chan event
	wg     sync.WaitGroup

	// replicas[k] is model k's resolved replica-pool size (>= 1).
	replicas []int

	// faulty[k] is model k's fault injector (nil when injection is off).
	faulty []*model.Faulty
	mstats []modelCounters
	// rstats[k][r] is replica r of model k's counters.
	rstats [][]replicaCounters

	// breakerMu guards the per-model circuit breakers, which the
	// coordinator mutates and Stats snapshots.
	breakerMu sync.Mutex
	//schemble:guardedby breakerMu per-model circuit breakers
	breakers []breakerState

	// lifeMu guards the lifecycle fields so Submit racing Start, Drain or
	// Stop observes a consistent (ctx, draining) pair.
	lifeMu sync.Mutex
	//schemble:guardedby lifeMu lifecycle context
	ctx context.Context
	//schemble:guardedby lifeMu lifecycle cancel hook
	cancel context.CancelFunc
	//schemble:guardedby lifeMu drain latch
	draining bool
	//schemble:guardedby lifeMu serving epoch start
	start time.Time

	// obs collects decision traces and latency histograms; nil (all hooks
	// skipped) unless Config.Obs enables it.
	obs *obsv.Observer

	// eng is the decision pipeline (internal/engine) this runtime drives:
	// SubmitClass calls its arrival path from any goroutine, the coordinator
	// owns its buffer, passes and settlements, and Stats snapshots its
	// overload controller (eng.QoS, never nil), result cache (eng.Cache)
	// and adaptation layer (eng.Adapt), the last two nil when their config
	// is the zero value. classStats holds per-class outcome counters (nil
	// when classless).
	eng        *engine.Engine
	classStats []classCounters

	// Health counters behind the Stats snapshot. nBuffered/nInflight follow
	// the coordinator's private structures.
	nSubmitted atomic.Uint64
	nOutcome   [obsv.NumOutcomes]atomic.Uint64
	nBuffered  atomic.Int64
	nInflight  atomic.Int64

	// turnEvents is how many events each coordinator turn handled before its
	// one planning pass, a count carried as that many seconds so it shares
	// the duration histograms' path to /v1/stats and /v1/metrics (buckets 1,
	// 2, 4 ... 2048); passTime is the wall time of each turn's pass (buckets
	// from 5µs by 1.6x to ~0.25s: a gated pass is microseconds, a deep
	// buffer's DP tens of milliseconds).
	turnEvents *obsv.Histogram
	passTime   *obsv.Histogram
}

type task struct {
	req *request
	k   int
}

type evKind int

const (
	evSubmit evKind = iota
	evTaskDone
	evDrain
)

type event struct {
	kind evKind
	req  *request
	k    int
	// done marks the evTaskDone that completed its request's last task.
	done bool
	// ran marks evTaskDone events whose task actually executed (as opposed
	// to being skipped because the request had already resolved); failed
	// marks executed tasks that failed permanently, cutoff those among
	// them that the tolerance layer abandoned at the request deadline.
	ran    bool
	failed bool
	cutoff bool
}

// ModelHealth is one model's fault-tolerance snapshot inside Stats.
type ModelHealth struct {
	Name string
	// Breaker is "closed", "open" or "half-open"; "off" when the breaker
	// is disabled.
	Breaker             string
	ConsecutiveFailures int
	BreakerTrips        uint64
	// Down is true while the (injected) model sits in a crash-recovery
	// window.
	Down     bool
	Executed uint64
	Failures uint64
	// Fault observations.
	Transient  uint64
	Stragglers uint64
	Crashes    uint64
	Timeouts   uint64
	Panics     uint64
	// Mitigations taken.
	Retries   uint64
	Hedges    uint64
	HedgeWins uint64
	// BacklogSeconds is the work committed to the model and not yet drained,
	// in virtual seconds, averaged over its replicas, as the last planning
	// pass read it. Stats.Load is built on the largest of these: it is the
	// term to look at when the load is high and the buffer is not.
	BacklogSeconds float64
	// TimerOvershoot is the distribution of how long past its asked-for
	// duration each completed model wait returned, in wall time — the
	// runtime's own reading of the bench's serve.timer_overshoot_us.
	TimerOvershoot obsv.HistogramSnapshot
	// Starved is the distribution of how long, in wall time, a replica of
	// the model sat idle while queries waited in the buffer: one
	// observation per wait that began with the model's queue empty and the
	// buffer not — the runtime's own reading of the idle-while-waiting gaps
	// the bench trace shows from outside.
	Starved obsv.HistogramSnapshot
	// ReplicaExecuted[r] / ReplicaFailures[r] break Executed and Failures
	// down by replica, so a single sick replica is visible inside an
	// otherwise healthy pool.
	ReplicaExecuted []uint64
	ReplicaFailures []uint64
}

// Stats is a point-in-time health snapshot of the runtime.
type Stats struct {
	Submitted uint64 // requests accepted by Submit
	Served    uint64 // resolved with the full subset's output in time
	Degraded  uint64 // served in time from a partial subset
	Missed    uint64 // resolved as deadline misses (or abandoned on Stop)
	Rejected  uint64 // explicitly rejected (saturation, drain, stopped)
	Resolved  uint64 // Served + Degraded + Missed + Rejected
	Buffered  int    // awaiting scheduling in the coordinator's buffer
	InFlight  int    // committed, not all tasks finished
	// QueueDepth[k] is model k's task-channel occupancy. A task a replica
	// has taken is counted in ReplicaBusy, never here.
	QueueDepth []int
	// Replicas[k] is model k's replica-pool size.
	Replicas []int
	// ReplicaBusy[k][r] is 1 while replica r of model k holds a task whose
	// completion has not been reported yet, 0 when it is idle; QueueDepth[k]
	// plus the sum of ReplicaBusy[k] counts each outstanding task exactly
	// once.
	ReplicaBusy [][]int
	// Models[k] is model k's fault/mitigation health.
	Models   []ModelHealth
	Draining bool

	// TurnEvents is the distribution of how many events — submissions, task
	// completions, and the deadline timer's wake — a coordinator turn handled
	// before its one planning pass, one event carried as one second: Count is
	// turns, Sum events. Above one, events queued while the turn before was
	// planning.
	// PassTime is the wall time of each turn's pass: what a query that
	// arrives mid-pass waits before it can be planned.
	TurnEvents obsv.HistogramSnapshot
	PassTime   obsv.HistogramSnapshot

	// Load is the overload controller's smoothed pressure estimate (~0
	// idle, 1 when Admission.Target seconds of service work wait: the
	// committed work of the most loaded model — Models[k].BacklogSeconds —
	// plus the buffered queries at the admission capacity, over the target);
	// Ladder is the degradation ladder's current rung and LadderState its
	// name ("full-service", "degrade-N"). Classes holds per-class outcome
	// counters and SLO attainment, in declaration order; nil when the
	// runtime is classless.
	Load        float64
	Ladder      int
	LadderState string
	Classes     []ClassStats

	// Cache is the result cache's counter snapshot; nil when caching is
	// off.
	Cache *rcache.Snapshot

	// Adapt is the online-adaptation engine's snapshot (live quantiles,
	// inflation factors, drift events); nil when
	// adaptation is off.
	Adapt *adapt.Snapshot
}

// Healthy reports whether every model is schedulable: no breaker open and
// no model inside a crash-recovery window.
func (st Stats) Healthy() bool {
	for _, m := range st.Models {
		if m.Breaker == "open" || m.Down {
			return false
		}
	}
	return true
}

// New builds a server.
func New(cfg Config) *Server {
	if cfg.Ensemble == nil || cfg.Scheduler == nil || cfg.Rewarder == nil {
		panic("serve: Ensemble, Scheduler and Rewarder are required")
	}
	if cfg.TimeScale <= 0 {
		cfg.TimeScale = 1
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 1024
	}
	m := len(cfg.Ensemble.Models)
	s := &Server{
		cfg:      cfg,
		clk:      wallClock{},
		tol:      cfg.Tolerance,
		scale:    cfg.TimeScale,
		events:   make(chan event, 4*cfg.QueueDepth),
		obs:      obsv.NewObserver(cfg.Obs),
		faulty:   make([]*model.Faulty, m),
		mstats:   make([]modelCounters, m),
		breakers: make([]breakerState, m),
		replicas: make([]int, m),
		rstats:   make([][]replicaCounters, m),

		turnEvents: obsv.NewLogHistogram(time.Second, 2, 12),
		passTime:   obsv.NewLogHistogram(5*time.Microsecond, 1.6, 24),
	}
	for k := range s.mstats {
		s.mstats[k].overshoot = obsv.NewLogHistogram(5*time.Microsecond, 1.5, 21)
		s.mstats[k].starved = obsv.NewLogHistogram(10*time.Microsecond, 1.6, 24)
	}
	for k := range s.replicas {
		r := 1
		if k < len(cfg.Replicas) && cfg.Replicas[k] > 1 {
			r = cfg.Replicas[k]
		}
		s.replicas[k] = r
		s.rstats[k] = make([]replicaCounters, r)
	}
	if len(cfg.Classes) > 0 {
		s.classStats = make([]classCounters, len(cfg.Classes))
	}
	for range cfg.Ensemble.Models {
		s.taskCh = append(s.taskCh, make(chan *task, cfg.QueueDepth))
	}
	// Frozen planning cost vector: mean latency with 10% headroom so
	// latency jitter does not turn feasible-looking plans into deadline
	// misses. With adaptation on, the engine rescales it by the live
	// inflation factor each planning pass.
	baseExec := make([]time.Duration, m)
	for k, md := range cfg.Ensemble.Models {
		baseExec[k] = time.Duration(float64(md.MeanLatency()) * 1.1)
	}
	s.eng = engine.New(engine.Config{
		Ensemble: cfg.Ensemble, Scheduler: cfg.Scheduler, Rewarder: cfg.Rewarder,
		Estimator: cfg.Estimator, Replicas: s.replicas, BaseExec: baseExec,
		Classes: cfg.Classes, Admission: cfg.Admission, Cache: cfg.Cache, Adapt: cfg.Adapt,
	})
	if cfg.Faults.Enabled() {
		for k := range cfg.Ensemble.Models {
			s.injectFaults(k, cfg.Faults)
		}
	}
	return s
}

// injectFaults installs model k's fault injector (the attempt keys carry k,
// so models share fc's seed); the server must not be started yet.
func (s *Server) injectFaults(k int, fc model.FaultConfig) {
	// Faulty.Attempt gets the clock's nows but virtual latencies, so
	// CrashMTBF stays virtual while the recovery window is scaled to wall
	// time here.
	if fc.CrashRecovery <= 0 {
		fc.CrashRecovery = model.DefaultCrashRecovery
	}
	fc.CrashRecovery = time.Duration(float64(fc.CrashRecovery) * s.scale)
	s.faulty[k] = model.NewFaulty(s.cfg.Ensemble.Models[k], fc)
}

// Start launches the workers and the coordinator. It returns immediately;
// cancel the context, or call Drain or Stop, to shut down.
func (s *Server) Start(ctx context.Context) {
	s.lifeMu.Lock()
	if s.ctx != nil {
		s.lifeMu.Unlock()
		panic("serve: Start called twice")
	}
	ctx, cancel := context.WithCancel(ctx)
	s.ctx, s.cancel = ctx, cancel
	// Virtual time is anchored to the clock once, here.
	s.start = s.clk.now()
	s.lifeMu.Unlock()
	for k := range s.taskCh {
		for r := 0; r < s.replicas[k]; r++ {
			k, r := k, r
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				s.worker(ctx, k, r)
			}()
		}
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.coordinate(ctx)
	}()
}

// Stop shuts the server down immediately and waits for goroutines to exit.
// Committed work is abandoned; every unresolved request resolves as
// missed. Safe to call repeatedly and after Drain.
func (s *Server) Stop() {
	s.cancelRuntime()
	s.wg.Wait()
}

// Drain stops accepting new work and lets committed requests finish before
// shutting down: buffered-but-uncommitted requests resolve as missed, new
// Submits resolve as rejected, and the runtime exits once the last
// committed request resolves. Drain returns nil when the runtime has fully
// stopped; if ctx is cancelled first it falls back to an immediate Stop
// and returns ctx.Err().
func (s *Server) Drain(ctx context.Context) error {
	s.lifeMu.Lock()
	sctx := s.ctx
	already := s.draining
	s.draining = true
	s.lifeMu.Unlock()
	if sctx == nil {
		return ErrNotStarted
	}
	if !already {
		s.clk.sent(toCoordinator, 1)
		select {
		case s.events <- event{kind: evDrain}:
		case <-sctx.Done():
		}
	}
	stopped := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(stopped)
	}()
	select {
	case <-stopped:
		return nil
	case <-ctx.Done():
		s.cancelRuntime()
		<-stopped
		return ctx.Err()
	}
}

func (s *Server) cancelRuntime() {
	s.lifeMu.Lock()
	cancel := s.cancel
	s.lifeMu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// Stats returns a point-in-time health snapshot. Counters are monotonic;
// Buffered, InFlight and QueueDepth are instantaneous gauges.
func (s *Server) Stats() Stats {
	s.lifeMu.Lock()
	draining := s.draining
	s.lifeMu.Unlock()
	st := Stats{
		Submitted:   s.nSubmitted.Load(),
		Served:      s.nOutcome[obsv.Served].Load(),
		Degraded:    s.nOutcome[obsv.Degraded].Load(),
		Missed:      s.nOutcome[obsv.Missed].Load(),
		Rejected:    s.nOutcome[obsv.Rejected].Load(),
		Buffered:    int(s.nBuffered.Load()),
		InFlight:    int(s.nInflight.Load()),
		QueueDepth:  make([]int, len(s.taskCh)),
		Replicas:    append([]int(nil), s.replicas...),
		ReplicaBusy: make([][]int, len(s.taskCh)),
		Models:      make([]ModelHealth, len(s.taskCh)),
		Draining:    draining,
		TurnEvents:  s.turnEvents.Snapshot(),
		PassTime:    s.passTime.Snapshot(),
	}
	st.Resolved = st.Served + st.Degraded + st.Missed + st.Rejected
	load, ladder, snaps := s.eng.QoS.Snapshot()
	st.Load = load
	st.Ladder = ladder
	st.LadderState = qos.LadderName(ladder)
	if s.classStats != nil {
		st.Classes = s.classStatsFrom(snaps)
	}
	if s.eng.Cache != nil {
		cs := s.eng.Cache.Snapshot()
		st.Cache = &cs
	}
	if s.eng.Adapt != nil {
		st.Adapt = s.eng.Adapt.Snapshot()
	}
	for k, ch := range s.taskCh {
		st.QueueDepth[k] = len(ch)
		busy := make([]int, s.replicas[k])
		for r := range busy {
			busy[r] = int(s.rstats[k][r].busy.Load())
		}
		st.ReplicaBusy[k] = busy
	}
	wallNow := s.clk.now()
	s.breakerMu.Lock()
	for k := range st.Models {
		c := &s.mstats[k]
		mh := ModelHealth{
			Name:       s.cfg.Ensemble.Models[k].Name(),
			Breaker:    "off",
			Executed:   c.executed.Load(),
			Failures:   c.failures.Load(),
			Transient:  c.transient.Load(),
			Stragglers: c.stragglers.Load(),
			Crashes:    c.crashes.Load(),
			Timeouts:   c.timeouts.Load(),
			Panics:     c.panics.Load(),
			Retries:    c.retries.Load(),
			Hedges:     c.hedges.Load(),
			HedgeWins:  c.hedgeWins.Load(),

			BacklogSeconds: time.Duration(c.backlog.Load()).Seconds(),
			TimerOvershoot: c.overshoot.Snapshot(),
			Starved:        c.starved.Snapshot(),
		}
		mh.ReplicaExecuted = make([]uint64, s.replicas[k])
		mh.ReplicaFailures = make([]uint64, s.replicas[k])
		for r := range mh.ReplicaExecuted {
			mh.ReplicaExecuted[r] = s.rstats[k][r].executed.Load()
			mh.ReplicaFailures[r] = s.rstats[k][r].failures.Load()
		}
		if s.tol.Enable {
			b := s.breakers[k]
			mh.Breaker = breakerName(b.state)
			mh.ConsecutiveFailures = b.consec
			mh.BreakerTrips = b.trips
		}
		if f := s.faulty[k]; f != nil {
			mh.Down = f.Down(wallNow)
		}
		st.Models[k] = mh
	}
	s.breakerMu.Unlock()
	return st
}

// Observer exposes the server's observability collector (nil when
// Config.Obs is disabled): decision traces via Last, counters and latency
// histograms via Snapshot.
func (s *Server) Observer() *obsv.Observer { return s.obs }

// maxTraceAlternatives bounds how many candidate subsets a decision trace
// records.
const maxTraceAlternatives = 4

// alternatives ranks every candidate subset by its profiled reward at the
// query's discrepancy score and returns the top few — the options the DP
// scheduler weighed the chosen subset against. Only called with
// observability enabled.
func (s *Server) alternatives(score float64) []obsv.Alternative {
	subs := ensemble.AllSubsets(s.cfg.Ensemble.M())
	alts := make([]obsv.Alternative, len(subs))
	for i, sub := range subs {
		alts[i] = obsv.Alternative{Subset: sub.Models(), Reward: s.cfg.Rewarder.Reward(score, sub)}
	}
	sort.SliceStable(alts, func(i, j int) bool { return alts[i].Reward > alts[j].Reward })
	if len(alts) > maxTraceAlternatives {
		alts = alts[:maxTraceAlternatives]
	}
	return alts
}

// Submit enqueues a query with a relative deadline and returns the channel
// its Result will arrive on. Start must have been called first. The
// returned channel always receives exactly one Result: immediately (with
// Rejected set) when the event loop is saturated or the server is draining
// or stopped, otherwise when the request completes, misses its deadline,
// or the runtime shuts down. In classed mode the request lands in the
// lowest-priority class (the untagged-traffic default).
func (s *Server) Submit(sample *dataset.Sample, deadline time.Duration) <-chan Result {
	return s.SubmitClass(sample, deadline, "")
}

// SubmitClass is Submit with an explicit request class (by name; unknown
// or empty names map to the lowest-priority class). A non-positive
// deadline means the class's configured default deadline. Every request is
// scored, then offered to the result cache, and only then meets admission:
// a cache hit resolves on the spot whatever the load, and under overload
// the admission controller may reject what is left up front (Rejected set,
// shed from the lowest-priority / over-quota classes first — never at
// random); classless servers ignore the class entirely.
func (s *Server) SubmitClass(sample *dataset.Sample, deadline time.Duration, class string) <-chan Result {
	s.lifeMu.Lock()
	ctx, draining := s.ctx, s.draining
	s.lifeMu.Unlock()
	if ctx == nil {
		panic("serve: Submit before Start")
	}
	ci, deadline := s.eng.Classify(class, deadline)
	now := s.clk.now()
	wallDeadline := now.Add(time.Duration(float64(deadline) * s.scale))
	// Query.Arrival is the one virtual instant the engine's arrival path —
	// adaptation, the cache, admission — sees for this request.
	req := &request{
		seq: s.nSubmitted.Add(1),
		Query: engine.Query{
			Class:    ci,
			Arrival:  s.virtual(now),
			Deadline: s.virtual(wallDeadline),
		},
		sample:       sample,
		arrived:      now,
		wallDeadline: wallDeadline,
		done:         make(chan Result, 1),
	}
	if s.obs != nil {
		req.tr = &obsv.DecisionTrace{
			ID:       req.seq,
			SampleID: sample.ID,
			CameraID: sample.CameraID,
			Queued:   req.Arrival,
			Deadline: req.Arrival + deadline,
		}
		if ci >= 0 {
			req.tr.Class = s.eng.QoS.Class(ci).Name
			req.tr.Ladder = s.eng.QoS.Ladder()
		}
	}
	if ci >= 0 {
		s.classStats[ci].submitted.Add(1)
	}
	if draining || ctx.Err() != nil {
		s.resolve(req, Result{Missed: true, Rejected: true})
		return req.done
	}
	arr := s.eng.Arrive(&req.Query, sample)
	req.advance(stateScored)
	if req.tr != nil {
		req.tr.Score = req.Score
		req.tr.Scored = s.Now()
		req.tr.Cache = arr.Cache
	}
	switch arr.Verdict {
	case engine.Hit:
		// Zero-cost plan: the cached answer resolves immediately, skipping
		// admission, the buffer, the scheduler and dispatch entirely.
		s.resolve(req, Result{
			Output:  arr.Value.Output,
			Subset:  arr.Value.Subset,
			Cached:  true,
			Latency: s.latency(req),
		})
		return req.done
	case engine.Shed:
		// An explicit rejection decided by class quota and ladder state.
		s.classStats[ci].shed.Add(1)
		s.resolve(req, Result{Missed: true, Rejected: true})
		return req.done
	}
	s.clk.sent(toCoordinator, 1)
	select {
	case s.events <- event{kind: evSubmit, req: req}:
	default:
		// Event loop saturated: reject explicitly instead of blocking the
		// caller or dropping the request on the floor.
		s.clk.sent(toCoordinator, -1)
		s.resolve(req, Result{Missed: true, Rejected: true})
		return req.done
	}
	if ctx.Err() != nil {
		// Raced shutdown: the coordinator's drain sweep may already be
		// past, and a stopped coordinator reaches no deadline; resolve
		// directly. resolve's exactly-once guarantee makes the duplicate
		// path harmless.
		s.resolve(req, Result{Missed: true, Rejected: true})
	}
	return req.done
}

// virtual converts a wall instant to virtual time: the distance from the
// Start anchor, descaled.
func (s *Server) virtual(at time.Time) time.Duration {
	//schemble:guardedby-ok start is written once in Start, before the workers and the coordinator launch and before a Submit is legal; reads are ordered by goroutine creation
	return time.Duration(float64(at.Sub(s.start)) / s.scale)
}

// Now is the server's current virtual time: how long it has served since
// Start, descaled. A model can read it to vary what it draws over a run.
func (s *Server) Now() time.Duration { return s.virtual(s.clk.now()) }

// latency is how long ago r arrived, in virtual time.
func (s *Server) latency(r *request) time.Duration {
	return time.Duration(float64(s.clk.now().Sub(r.arrived)) / s.scale)
}

// worker is replica r of model k: it pulls tasks off the model's shared
// queue and executes them one at a time. Tasks whose request already
// resolved (rejected, direct-deadline, degraded, or shutdown) are skipped
// but still reported, so the coordinator's backlog accounting stays
// truthful.
// A task whose attempt chain fails permanently is reported as failed
// rather than killing the worker, so one bad input or fault window can
// never strand the replica.
func (s *Server) worker(ctx context.Context, k, r int) {
	m := s.cfg.Ensemble.Models[k]
	inj := s.faulty[k]
	w := s.clk.newWaiter()
	// src is reseeded in place for every attempt the replica runs.
	src := new(rng.Source)
	for {
		t, alive := s.nextTask(ctx, k)
		if !alive {
			return
		}
		if !s.runTask(ctx, w, src, m, inj, k, r, t) {
			return
		}
	}
}

// nextTask takes a replica's next task off model k's queue; alive is false
// when the runtime context was cancelled first. A task staged behind the
// one the replica just finished is taken at once. Otherwise the replica
// goes idle, and if queries sit in the coordinator's buffer at that moment
// it is starved: there is work, and it waits for the coordinator to plan
// and hand it over. The wall time of each such wait is one observation in
// the model's starved histogram.
func (s *Server) nextTask(ctx context.Context, k int) (t *task, alive bool) {
	select {
	case <-ctx.Done():
		return nil, false
	case t = <-s.taskCh[k]:
		s.clk.sent(k, -1)
		return t, true
	default:
	}
	var idle time.Time
	starved := s.nBuffered.Load() > 0
	if starved {
		idle = s.clk.now()
	}
	s.clk.idle(k, 1)
	select {
	case <-ctx.Done():
		return nil, false
	case t = <-s.taskCh[k]:
		s.clk.idle(k, -1)
		s.clk.sent(k, -1)
		if starved {
			s.mstats[k].starved.Observe(s.clk.now().Sub(idle))
		}
		return t, true
	}
}

// runTask executes one task on replica r of model k and reports its
// completion event. The replica counts as busy for the whole of it, a
// skipped task included, so a task is in its model's queue or on a busy
// replica until the coordinator hears of it. Returns false when the runtime
// context was cancelled and the worker must exit.
func (s *Server) runTask(ctx context.Context, w *waiter, src *rng.Source, m model.Model, inj *model.Faulty, k, r int, t *task) bool {
	rc := &s.rstats[k][r]
	rc.busy.Store(1)
	defer rc.busy.Store(0)
	var done, ran, failed, cutoff bool
	if !t.req.isResolved() {
		ran = true
		out, vlat, end := s.execute(ctx, w, src, m, inj, k, t.req)
		if end == endDead {
			return false
		}
		ok := end == endOK
		cutoff = end == endCutoff
		s.mstats[k].executed.Add(1)
		rc.executed.Add(1)
		if !ok {
			s.mstats[k].failures.Add(1)
			rc.failures.Add(1)
			failed = true
		} else if s.eng.Adapt != nil {
			s.eng.Adapt.ObserveLatency(s.Now(), k, r, vlat)
		}
		t.req.mu.Lock()
		if t.req.state != stateResolved {
			t.req.remaining--
			if ok {
				t.req.outs[k] = out
				t.req.ok = t.req.ok.With(k)
			} else {
				t.req.failed++
			}
			done = t.req.remaining == 0
		}
		t.req.mu.Unlock()
	}
	s.clk.sent(toCoordinator, 1)
	select {
	case s.events <- event{kind: evTaskDone, req: t.req, k: k, done: done, ran: ran, failed: failed, cutoff: cutoff}:
	case <-ctx.Done():
		return false
	}
	return true
}

// taskEnd is how a task's attempt chain ended.
type taskEnd uint8

const (
	endOK     taskEnd = iota // an output was produced
	endFailed                // failed permanently: retries exhausted, crash, panic
	endCutoff                // abandoned at the request deadline by the tolerance layer
	endDead                  // the runtime context was cancelled mid-attempt
)

// attemptKey names attempt a of request seq's task on model k, the key
// every draw of the attempt is seeded from. k < ensemble.MaxModels and
// a <= maxRetries each fit their byte.
func attemptKey(seq uint64, k, a int) uint64 {
	return seq<<16 | uint64(k)<<8 | uint64(a)
}

// execute runs one task's attempt chain for model k: draw the injected
// fault, sleep the (scaled, possibly straggling) latency with optional
// hedging and deadline cutoff, run Predict panic-safely, and retry failed
// attempts with jittered exponential backoff while the budget lasts. Each
// attempt reseeds src from its key and draws from it in one order: the
// latency, then the hedge's latency, then the backoff jitter. end says how
// the chain ended; on endDead the worker must exit silently. vlat is the
// winning attempt's virtual service time — the sample the adaptation
// layer's latency sketches ingest.
func (s *Server) execute(ctx context.Context, w *waiter, src *rng.Source, m model.Model, inj *model.Faulty, k int, r *request) (out model.Output, vlat time.Duration, end taskEnd) {
	c := &s.mstats[k]
	timedOut := func() {
		c.timeouts.Add(1)
		if s.obs != nil {
			r.obsTimeouts.Add(1)
		}
	}
	for attempt := 0; ; attempt++ {
		key := attemptKey(r.seq, k, attempt)
		src.Reseed(rng.Mix(s.cfg.Seed^0x5e7e, key))
		lat := m.SampleLatency(src)
		// The attempt's start: the fault injector's crash windows, the
		// deadline budget and the wait target all take this one instant.
		now := s.clk.now()
		dec := model.Decision{Kind: model.FaultNone, LatencyFactor: 1}
		if inj != nil {
			dec = inj.Attempt(now, lat, key)
		}
		switch dec.Kind {
		case model.FaultCrash:
			c.crashes.Add(1)
		case model.FaultTransient:
			c.transient.Add(1)
		default:
			if dec.Kind == model.FaultStraggler {
				c.stragglers.Add(1)
			}
			// The attempt's three possible ends are all known before it starts:
			// its own (possibly straggling) draw, a hedge's, and the deadline.
			// An attempt already out of budget arms nothing.
			cutoff := never
			if s.tol.Enable {
				if cutoff = r.wallDeadline.Sub(now); cutoff <= 0 {
					timedOut()
					return out, 0, endCutoff
				}
			}
			d := time.Duration(float64(lat) * dec.LatencyFactor * s.scale)
			// The winning attempt's virtual service time: the primary's
			// (possibly straggling) draw unless the hedge wins below.
			vlat = time.Duration(float64(lat) * dec.LatencyFactor)
			hedge := never
			var hlat time.Duration
			if dec.Kind == model.FaultStraggler && s.tol.Enable {
				// Hedge: re-issue the attempt after hedgeFactor mean
				// latencies; the fresh (non-straggling) attempt races the
				// straggler and the first to finish wins. Outputs are
				// deterministic, so the winner only decides latency.
				hlat = m.SampleLatency(src)
				// The hedging threshold consumes the live inflation factor:
				// under drift the frozen mean would fire hedges on every
				// (now-normal) slow attempt.
				mean := float64(m.MeanLatency())
				if s.eng.Adapt != nil {
					mean *= s.eng.Adapt.Inflation(k)
				}
				if hd := time.Duration((hedgeFactor*mean + float64(hlat)) * s.scale); hd < d {
					hedge = hd
					c.hedges.Add(1)
					if s.obs != nil {
						r.obsHedges.Add(1)
					}
				}
			}
			wake, kind := earliestWake(d, hedge, cutoff)
			over, alive := w.until(ctx, now.Add(wake))
			if !alive {
				return out, 0, endDead
			}
			c.overshoot.Observe(over)
			switch kind {
			case wakeHedge:
				c.hedgeWins.Add(1)
				// The fresh attempt won the race: its own draw is the
				// observed service time, not the straggler's.
				vlat = hlat
			case wakeCutoff:
				// The deadline arrived mid-attempt: abandon it instead of
				// occupying the worker past the point of usefulness.
				timedOut()
				return out, 0, endCutoff
			}
			if out, ok := s.safePredict(m, k, r.sample); ok {
				return out, vlat, endOK
			}
			// Predict panicked: contained by safePredict; the attempt
			// failed like a transient fault.
		}
		retry, alive := s.backoffUntil(ctx, w, src, r.wallDeadline, attempt)
		if !alive {
			return out, 0, endDead
		}
		if !retry {
			return out, 0, endFailed
		}
		c.retries.Add(1)
		if s.obs != nil {
			r.obsRetries.Add(1)
		}
	}
}

// backoffUntil decides whether a failed attempt may retry, sleeping the
// jittered exponential backoff first; the jitter is the attempt's last draw
// from src. deadline is the request's. alive is false when the runtime
// context was cancelled during the sleep.
func (s *Server) backoffUntil(ctx context.Context, w *waiter, src *rng.Source, deadline time.Time, attempt int) (retry, alive bool) {
	if !s.tol.Enable || attempt >= maxRetries {
		return false, true
	}
	jit := time.Duration(src.Float64() * float64(retryBackoff))
	wake := s.clk.now().Add(time.Duration(float64(retryBackoff<<uint(attempt)+jit) * s.scale))
	if wake.After(deadline) {
		// No budget left to retry inside the deadline.
		return false, true
	}
	_, alive = w.until(ctx, wake)
	return alive, alive
}

// safePredict runs m.Predict, converting a panic into a failed attempt so
// one bad input can never kill the model's worker goroutine and strand its
// task queue.
func (s *Server) safePredict(m model.Model, k int, sample *dataset.Sample) (out model.Output, ok bool) {
	defer func() {
		if rec := recover(); rec != nil {
			s.mstats[k].panics.Add(1)
			ok = false
		}
	}()
	return m.Predict(sample), true
}

// coordinator is the goroutine that drives the decision engine: it owns the
// event loop (turn), the engine's buffer, passes and settlements, the committed
// requests, and the estimate of the fleet the passes plan against — it is
// the engine's Executor.
type coordinator struct {
	s *Server
	// busyUntil[k][r] approximates, in virtual time since start, when
	// replica r of model k drains the work committed to it; pending[k]
	// counts dispatched-but-unfinished tasks so completions can re-anchor
	// the estimate on reality instead of accumulating jitter.
	busyUntil [][]time.Duration
	pending   []int
	// blocked is the mask the current pass plans around, kept for the
	// decision traces of its commits.
	blocked ensemble.Subset
	// inflight tracks committed-but-unfinished requests so shutdown can
	// resolve them and drain knows when it is done; a request maps to true
	// while its deadline, with the tolerance layer on, is still to come.
	inflight map[*request]bool
	draining bool
	// wake is the one timer, armed for the earliest deadline still to come.
	wake timer
}

// coordinate runs the coordinator, one turn per wake-up.
func (s *Server) coordinate(ctx context.Context) {
	m := s.cfg.Ensemble.M()
	c := &coordinator{
		s:         s,
		busyUntil: make([][]time.Duration, m),
		pending:   make([]int, m),
		inflight:  make(map[*request]bool),
		wake:      s.clk.newTimer(),
	}
	for k := range c.busyUntil {
		c.busyUntil[k] = make([]time.Duration, s.replicas[k])
	}
	for {
		select {
		case <-ctx.Done():
			c.shutdown()
			return
		case e := <-s.events:
			c.turn(&e)
		case <-c.wake.c():
			c.turn(nil)
		}
	}
}

// turn handles the event the coordinator woke on (nil when its timer woke
// it) and every event that was already queued behind it when the turn
// began, resolves what the deadlines have caught up with, then plans once:
// the events a pass let pile up cost one pass, not one each. The count is
// taken up front, so events that arrive while these are handled wait for
// the next turn and a flood cannot keep the pass from running. Last, it
// re-arms the timer and tells the clock the turn is over.
func (c *coordinator) turn(e *event) {
	s := c.s
	n := len(s.events)
	defer s.clk.sent(toCoordinator, -(n + 1))
	if e != nil {
		c.handle(*e)
	}
	for i := 0; i < n; i++ {
		// The coordinator is the channel's only receiver: the n are there.
		c.handle(<-s.events)
	}
	s.turnEvents.Observe(time.Duration(n+1) * time.Second)
	now := s.clk.now()
	next := c.expire(now)
	if c.draining && len(c.inflight) == 0 {
		// Last committed request resolved: complete the drain.
		s.cancelRuntime()
		return
	}
	if !c.draining {
		began := s.clk.now()
		s.eng.Pass(s.virtual(began), c)
		s.passTime.Observe(s.clk.now().Sub(began))
		c.syncGauges()
		for k, w := range s.eng.Work() {
			s.mstats[k].backlog.Store(int64(w))
		}
	}
	d := never
	if !next.IsZero() {
		d = next.Sub(now)
	}
	c.wake.set(d)
}

// expire resolves what the deadlines have caught up with at now, before the
// turn's pass — a buffered request misses, and with the tolerance layer on
// an in-flight one serves the outputs it holds — and returns the earliest
// deadline still to come among them (zero when there is none). The same
// walk drops the buffered requests that resolved otherwise (a Submit raced
// shutdown), so the engine neither counts nor plans them.
func (c *coordinator) expire(now time.Time) (next time.Time) {
	s := c.s
	ahead := func(r *request) bool {
		if !now.Before(r.wallDeadline) {
			return false
		}
		if next.IsZero() || r.wallDeadline.Before(next) {
			next = r.wallDeadline
		}
		return true
	}
	s.eng.Filter(func(it engine.Item) bool {
		r := it.(*request)
		keep := !r.isResolved() && ahead(r)
		if !keep {
			s.resolve(r, Result{Missed: true}) // no-op if it already resolved
		}
		return keep
	})
	//schemble:maporder-ok each in-flight request settles independently to its own channel, and a minimum does not depend on the order it is taken in
	for r, due := range c.inflight {
		if due && !ahead(r) {
			c.inflight[r] = false
			c.degrade(r)
		}
	}
	c.syncGauges()
	return next
}

// handle applies one event to the coordinator's state; the planning it may
// call for is the turn's.
func (c *coordinator) handle(e event) {
	switch e.kind {
	case evSubmit:
		if c.draining {
			c.s.resolve(e.req, Result{Missed: true, Rejected: true})
			return
		}
		e.req.advance(stateBuffered)
		c.s.eng.Buffer(e.req)
		c.syncGauges()
	case evTaskDone:
		c.onTaskDone(e)
	case evDrain:
		c.draining = true
		// Uncommitted work cannot finish under drain: resolve it
		// now. Committed work runs to completion.
		c.missBuffered()
	}
}

func (c *coordinator) syncGauges() {
	c.s.nBuffered.Store(int64(c.s.eng.Buffered()))
	c.s.nInflight.Store(int64(len(c.inflight)))
}

// missBuffered resolves every buffered request as missed.
func (c *coordinator) missBuffered() {
	c.s.eng.Filter(func(it engine.Item) bool {
		c.s.resolve(it.(*request), Result{Missed: true})
		return false
	})
	c.syncGauges()
}

func (c *coordinator) shutdown() {
	//schemble:maporder-ok each in-flight request resolves independently to its own channel; no ordered output derives from this sweep
	for r := range c.inflight {
		c.s.resolve(r, Result{Missed: true})
		delete(c.inflight, r)
	}
	c.missBuffered()
	// Drain events that raced with shutdown so their requests still
	// resolve.
	for {
		select {
		case e := <-c.s.events:
			if e.kind == evSubmit {
				c.s.resolve(e.req, Result{Missed: true, Rejected: true})
			}
		default:
			return
		}
	}
}

// onTaskDone books one finished (or skipped) task and, when it was its
// request's last, settles the request.
func (c *coordinator) onTaskDone(e event) {
	s := c.s
	if e.ran {
		s.breakerRecord(e.k, !e.failed, s.Now())
	}
	if c.pending[e.k] > 0 {
		c.pending[e.k]--
	}
	// Re-anchor the backlog estimate on the actual completion time so
	// latency jitter cannot accumulate drift: the pending tasks are assumed
	// spread evenly over the pool, replica i finishing after (pending+i)/R
	// more tasks (the slot estimates sum to pending, preserving total
	// capacity; with one replica this is the scalar now + pending*exec).
	R := len(c.busyUntil[e.k])
	anchor := s.Now()
	for i := range c.busyUntil[e.k] {
		c.busyUntil[e.k][i] = anchor + time.Duration((c.pending[e.k]+i)/R)*s.eng.Exec()[e.k]
	}
	if !e.done {
		return
	}
	r := e.req
	delete(c.inflight, r)
	c.syncGauges()
	r.mu.Lock()
	outs, okMask, nfailed := r.outs, r.ok, r.failed
	r.mu.Unlock()
	if okMask == ensemble.Empty {
		// Every task failed permanently: nothing to aggregate.
		s.resolve(r, Result{Subset: r.Subset, Missed: true, Latency: s.latency(r)})
		return
	}
	// A request completed by a deadline cutoff is what the deadline step
	// degrades: what finished, finished in time. The cutoff wakes at the
	// deadline itself, so whether it or the coordinator's deadline step
	// gets there first must not decide the outcome.
	late := s.clk.now().After(r.wallDeadline) && !e.cutoff
	st := s.eng.Settle(&r.Query, outs, okMask, nfailed, late)
	res := Result{
		Output:   st.Output,
		Subset:   okMask,
		Missed:   late,
		Degraded: st.Degraded,
		Latency:  s.latency(r),
	}
	if s.claim(r, res) {
		// Only the result that is delivered may fill the cache, and it
		// does before the caller has it: whoever holds the answer finds
		// the entry filled.
		s.eng.Delivered(s.Now(), &r.Query, st)
		r.done <- res
	}
}

// degrade is partial-ensemble degradation, for a committed request whose
// deadline arrived with some but not all subset outputs: aggregate what
// completed — the rest count as failed — and serve it degraded instead of
// missing. Still-running sibling tasks observe the resolved state and are
// skipped; exactly-once holds. (Writes to outs land on indices outside
// okMask, so the aggregation never races them.) Any other request is left to
// its tasks.
func (c *coordinator) degrade(r *request) {
	s := c.s
	r.mu.Lock()
	committed := r.state == stateCommitted
	outs, okMask := r.outs, r.ok
	r.mu.Unlock()
	if !committed || okMask == ensemble.Empty || okMask == r.Subset {
		return
	}
	st := s.eng.Settle(&r.Query, outs, okMask, r.Subset.Size()-okMask.Size(), false)
	delete(c.inflight, r)
	s.resolve(r, Result{
		Output:   st.Output,
		Subset:   okMask,
		Degraded: st.Degraded,
		Latency:  s.latency(r),
	})
}

// Blocked implements engine.Executor: models behind an open breaker or
// inside a crash-recovery window, which plans must go around.
func (c *coordinator) Blocked(now time.Duration) ensemble.Subset {
	c.blocked = c.s.breakerBlocked(now)
	for k, f := range c.s.faulty {
		if f != nil && f.Down(c.s.clk.now()) {
			c.blocked = c.blocked.With(k)
		}
	}
	return c.blocked
}

// Capacity implements engine.Executor.
func (c *coordinator) Capacity() core.Capacity { return c.busyUntil }

// Room implements engine.Executor with the staging rule, asked of every
// model of sub.
func (c *coordinator) Room(now time.Duration, sub ensemble.Subset) bool {
	for k, slots := range c.busyUntil {
		if sub.Contains(k) && !stageable(slots, now, c.s.eng.Exec()[k]) {
			return false
		}
	}
	return true
}

// Commit implements engine.Executor: it locks the request onto sub and
// queues one task per model.
func (c *coordinator) Commit(t time.Duration, it engine.Item, sub ensemble.Subset, lvl qos.Level) {
	s, r := c.s, it.(*request)
	m := len(c.busyUntil)
	// A saturated task queue means dispatch would leak: reject explicitly
	// before committing anything. The coordinator is the channels' only
	// sender, so this pre-flight check cannot race another producer.
	for _, k := range sub.Models() {
		if len(s.taskCh[k]) == cap(s.taskCh[k]) {
			s.resolve(r, Result{Missed: true, Rejected: true})
			return
		}
	}
	r.mu.Lock()
	if r.state == stateResolved {
		r.mu.Unlock()
		return
	}
	r.Subset = sub
	r.Level = lvl
	r.remaining = sub.Size()
	r.outs = make([]model.Output, m)
	r.state = stateCommitted
	if r.tr != nil {
		// Decision context: what the runtime looked like when the subset
		// was locked in.
		r.tr.Committed = t
		r.tr.Subset = sub.Models()
		if lvl > qos.LevelFull {
			r.tr.Level = lvl.String()
		}
		if r.Planned != sub {
			r.tr.Planned = r.Planned
		}
		r.tr.Alternatives = s.alternatives(r.Score)
		depths := make([]int, m)
		for k, ch := range s.taskCh {
			depths[k] = len(ch)
		}
		r.tr.QueueDepths = depths
		// Per-model earliest replica availability: the capacity signal the
		// scheduler keyed its feasibility checks on.
		bu := make([]time.Duration, m)
		for k, slots := range c.busyUntil {
			_, bu[k] = earliestSlot(slots)
		}
		r.tr.BusyUntil = bu
		r.tr.Blocked = c.blocked.Models()
		if s.eng.Adapt != nil {
			r.tr.Drift = s.eng.Adapt.ActiveDrift()
		}
	}
	r.mu.Unlock()
	c.inflight[r] = s.tol.Enable
	for _, k := range sub.Models() {
		// The task lands on the earliest-available replica slot, exactly
		// the assumption the scheduler's capacity model (core.Capacity)
		// made when it judged feasibility.
		slot, start := earliestSlot(c.busyUntil[k])
		if start < t {
			start = t
		}
		s.clk.sent(k, 1)
		select {
		case s.taskCh[k] <- &task{req: r, k: k}:
			c.busyUntil[k][slot] = start + s.eng.Exec()[k]
			c.pending[k]++
		default:
			s.clk.sent(k, -1)
			// Unreachable given the pre-flight check; if it ever happens,
			// roll back instead of leaking: busyUntil is untouched for this
			// model, inflight forgets the request, it resolves as rejected,
			// and workers skip its already-queued sibling tasks.
			delete(c.inflight, r)
			s.resolve(r, Result{Missed: true, Rejected: true})
		}
	}
}

// earliestSlot returns the replica slot of one model that drains its
// committed work first, and when: the slot the model's next task lands on
// and the availability the scheduler's capacity model (core.Capacity)
// judged feasibility against. Ties go to the lowest index.
func earliestSlot(slots []time.Duration) (idx int, at time.Duration) {
	for i, v := range slots {
		if v < slots[idx] {
			idx = i
		}
	}
	return idx, slots[idx]
}

// stageable is the coordinator's commit rule for one model: at time t it
// can take one more task while the work committed to its earliest replica
// slot runs out within one task time, exec. The task lands on that slot,
// which then drains by t + 2·exec; Room asks it of every model a query
// commits onto, so a busy replica holds at most one task staged behind the
// running one, and an idle one can be handed two in one pass. The worker
// starts the staged task the instant it finishes, and the pass that
// completion triggers runs during it (DESIGN.md "Online wrapper").
func stageable(slots []time.Duration, t, exec time.Duration) bool {
	_, at := earliestSlot(slots)
	return at <= t+exec
}

// outcome classifies a result, once, for the trace and every counter.
func (res Result) outcome() obsv.Outcome {
	switch {
	case res.Rejected:
		return obsv.Rejected
	case res.Missed:
		return obsv.Missed
	case res.Degraded:
		return obsv.Degraded
	}
	return obsv.Served
}

// resolve delivers a result exactly once; entering stateResolved is the
// only transition allowed from any stage, so late task completions, the
// deadline step and shutdown sweeps cannot double-deliver.
func (s *Server) resolve(r *request, res Result) {
	if s.claim(r, res) {
		r.done <- res
	}
}

// claim is resolve up to the delivery: it reports whether res won the
// exactly-once race for r, and books it if so. The winner owes r.done the
// result.
func (s *Server) claim(r *request, res Result) bool {
	r.mu.Lock()
	if r.state == stateResolved {
		r.mu.Unlock()
		return false
	}
	r.state = stateResolved
	out := res.outcome()
	var trace *obsv.DecisionTrace
	if r.tr != nil {
		// Finalize the trace while holding the mutex that guarded its
		// commit-time fields, then hand a copy to the observer outside the
		// lock.
		t := r.tr
		t.Resolved = s.Now()
		t.Latency = t.Resolved - t.Queued
		t.Retries = int(r.obsRetries.Load())
		t.Hedges = int(r.obsHedges.Load())
		t.Timeouts = int(r.obsTimeouts.Load())
		t.Outcome = obsv.Outcomes[out]
		if !res.Missed {
			t.Served = res.Subset.Models()
		}
		c := *t
		trace = &c
	}
	r.mu.Unlock()
	s.nOutcome[out].Add(1)
	if r.Class >= 0 && s.classStats != nil {
		cc := &s.classStats[r.Class]
		cc.outcome[out].Add(1)
		if res.Cached {
			cc.cached.Add(1)
		}
	}
	if trace != nil {
		s.obs.Done(*trace)
	}
	return true
}
