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
// time (stageable), or onto the part of its subset every model of which has
// room, if that part gives up at most one reward step of the DP's grid. So
// at most one task waits staged behind each running one, and the rest of
// the wait is in the buffer, where the query can still be re-planned. A
// model with an idle replica meanwhile runs its task of the most urgent
// query waiting on the rest of a plan that holds it, if it can finish that
// task by the query's deadline: an early task. The query stays buffered and
// re-planned, the plan counting that task as the query's own, already paid
// (core.QueryInfo.Sunk); its commit takes back an early model the plan left
// out when that costs no reward and fits the class's cap, dispatches only
// the models without one, drops an early output from outside its subset,
// and settles at once when every output is already in. Each
// replica keeps its own timeline: a staged task starts the instant the
// replica freed — its last wait's target — or when it was queued, if later,
// however late the host woke the worker, and it runs while the coordinator
// plans the pass that completion triggered. The coordinator re-anchors its
// capacity estimate on that same instant. The simulator commits once some
// model of the subset is idle, having no planning cost to hide; the two
// agree whenever an arrival meets an idle fleet.
//
// The coordinator works in turns: it handles the event that woke it and
// every event already queued behind it, then plans once, and the engine
// commits in the plan's own earliest-deadline-first order — the events a
// long pass let pile up cost one pass, not one each.
//
// A replica runs one task at a time. Model execution is simulated by
// waiting out the model's latency on the server's clock, which
// Config.TimeScale compresses on the wall clock, so examples can replay a
// trace in compressed wall-clock time while exercising the same
// scheduling logic the paper deploys. With every replica count at 1, the
// runtime is bit-identical to the original single-worker design.
//
// Lifecycle: New -> Start(ctx) -> Submit()... -> Drain/Stop. Every request
// has one owner at a time, and only its owner resolves it: SubmitClass until
// it sends the request to the coordinator, the coordinator from then on. So
// it resolves exactly once: with its aggregated output, as a deadline miss,
// or as an explicit rejection (Result.Rejected) when the runtime is
// saturated, draining, or stopped. The coordinator owns every deadline: each
// turn, before it plans, resolves the buffered requests whose deadline has
// passed, and one timer wakes it for the earliest deadline still to come.
// Every instant the runtime reads or waits for is virtual time on its one
// clock.
// Backpressure is bounded and visible:
// Submit rejects instead of blocking when the event loop is full, and
// dispatch rejects instead of leaking when a model's task queue is full.
// Stop abandons committed work; Drain finishes it first.
//
// The runtime also survives an unreliable substrate. Config.Faults injects
// deterministic transient errors, stragglers and model crashes via
// model.Faulty, and the fault-tolerance layer (tolerance.go) always runs:
// bounded retries with jittered backoff, hedged re-issue of slow attempts,
// per-task deadline timeouts, a per-model circuit breaker the scheduler
// consults so subsets avoid failing models, and partial-ensemble
// degradation — a request whose deadline arrives with at least one (but
// not all) subset outputs resolves with Result.Degraded instead of missing.
// A panicking Predict is contained (the attempt fails, the worker
// survives); without it or an injected fault none of the layer fires.
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
	// TimeScale is the wall time one unit of virtual time takes on the wall
	// clock: 0.1 runs model latencies, deadlines and every other span 10x
	// faster than real time. Defaults to 1. Replay ignores it: on its
	// virtual clock nothing is scaled.
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
	// Tolerance is accepted and ignored: the fault-tolerant execution
	// layer is always on.
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
	// per-model latency histograms feed the scheduler's cost vector and
	// the hedging threshold instead of the frozen profiling numbers, and a
	// windowed detector emits drift events. The zero value disables
	// adaptation and keeps every request on the frozen-profile code paths
	// bit-identically.
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

// request tracks one in-flight query.
type request struct {
	// seq is the submission number, from 1: the trace ID and attemptKey's.
	seq uint64
	// Query is the decision engine's view. SubmitClass fills it before the
	// request is shared (the event-channel send orders those writes); from
	// then on only the coordinator writes it: ID when the request is
	// buffered, Early while it waits, Level and Subset when it is committed.
	engine.Query
	sample *dataset.Sample

	// What the request's tasks produced, booked by the coordinator alone
	// (onTaskDone) from the events its workers report: outs[k] is model k's
	// output, ok the mask of models whose task succeeded, failed the count
	// of committed tasks that failed permanently (retries exhausted, crash,
	// timeout, panic), remaining the committed tasks still to end.
	outs      []model.Output
	ok        ensemble.Subset
	failed    int
	remaining int

	// live is the one thing a worker reads that the coordinator writes: the
	// mask of models whose output can still count — the full ensemble while
	// the request waits, its subset once committed, none once resolved.
	live atomic.Uint32
	// tr is the request's decision trace, nil when observability is off,
	// written by the request's owner. The mitigation counters are atomics
	// because workers bump them while the coordinator may resolve.
	tr          *obsv.DecisionTrace
	obsRetries  atomic.Uint32
	obsHedges   atomic.Uint32
	obsTimeouts atomic.Uint32
	done        chan Result
}

// counts reports whether t's output can still count: its request has not
// resolved and, for an early task, has not committed onto a subset without
// t's model. A worker skips a task that cannot; one that can runs and
// reports its end, which the coordinator books or drops as the request then
// stands (onTaskDone).
func (r *request) counts(t *task) bool {
	return ensemble.Subset(r.live.Load()).Contains(t.k)
}

// modelCounters are one model's fault and mitigation counters, written by
// the model's worker goroutine and read by Stats.
type modelCounters struct {
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
// completion event is sent, 0 otherwise; executed counts the tasks whose
// attempt chain ran and failures those that failed permanently. A model's
// totals are its replicas' sums.
type replicaCounters struct {
	busy     atomic.Int32
	executed atomic.Uint64
	failures atomic.Uint64
}

// Server is a running ensemble-serving instance.
type Server struct {
	cfg Config
	// clk is the server's clock: &wall unless Replay or a test swapped it.
	clk    clock
	wall   wallClock
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
	// Stop observes a consistent (ctx, draining) pair, and orders each
	// Submit's send to the coordinator before or after its shutdown.
	lifeMu sync.Mutex
	//schemble:guardedby lifeMu lifecycle context
	ctx context.Context
	//schemble:guardedby lifeMu lifecycle cancel hook
	cancel context.CancelFunc
	//schemble:guardedby lifeMu drain latch
	draining bool
	// closed is set by the coordinator's shutdown before its last sweep of
	// the event loop: from then on no request is sent to it.
	//schemble:guardedby lifeMu shutdown latch
	closed bool

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

	// Health counters behind the Stats snapshot. nBuffered/nInflight and
	// nPartCommits follow the coordinator's private structures.
	nSubmitted   atomic.Uint64
	nOutcome     [obsv.NumOutcomes]atomic.Uint64
	nBuffered    atomic.Int64
	nInflight    atomic.Int64
	nPartCommits atomic.Uint64
	nEarly       atomic.Uint64
	nEarlyUsed   atomic.Uint64

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
	// sent is when the coordinator queued the task: a replica free before
	// then starts it no earlier (worker).
	sent time.Duration
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
	// ran marks evTaskDone events whose task actually executed (as opposed
	// to being skipped because its output could no longer count); failed
	// marks an executed task that failed permanently, cutoff one among those
	// that the tolerance layer abandoned at the request deadline, and out is
	// the output of one that succeeded.
	ran    bool
	failed bool
	cutoff bool
	out    model.Output
	// free is when the replica ran out of the task's work, on its own
	// timeline (worker): the instant the coordinator re-anchors on.
	free time.Duration
}

// ModelHealth is one model's fault-tolerance snapshot inside Stats.
type ModelHealth struct {
	Name string
	// Breaker is "closed", "open" or "half-open".
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
	// TimerOvershoot is the distribution of how long past its target each
	// completed model wait returned, in wall time: how late its result was
	// delivered. The bench's serve.timer_overshoot_us times the same waits
	// from the worker's pickup instead.
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
	// PartCommits counts the queries committed onto a strict part of their
	// capped plan for lack of room, the part within one reward step of it.
	PartCommits uint64
	// EarlyTasks counts the tasks dispatched to an idle model ahead of their
	// query's commit; EarlyUsed the early outputs, in hand or still to come,
	// that a commit kept instead of dispatching the model again.
	EarlyTasks uint64
	EarlyUsed  uint64
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
	// Ladder is the degradation ladder's current rung (0 = full service).
	// Classes holds per-class outcome counters and SLO attainment, in
	// declaration order; nil when the runtime is classless.
	Load    float64
	Ladder  int
	Classes []ClassStats

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
		wall:     newWallClock(cfg.TimeScale),
		events:   make(chan event, 4*cfg.QueueDepth),
		obs:      obsv.NewObserver(cfg.Obs),
		faulty:   make([]*model.Faulty, m),
		mstats:   make([]modelCounters, m),
		breakers: make([]breakerState, m),
		replicas: make([]int, m),
		rstats:   make([][]replicaCounters, m),

		turnEvents: obsv.NewHistogram(time.Second, 2, 12),
		passTime:   obsv.NewHistogram(5*time.Microsecond, 1.6, 24),
	}
	s.clk = &s.wall
	for k := range s.mstats {
		s.mstats[k].overshoot = obsv.NewHistogram(5*time.Microsecond, 1.5, 21)
		s.mstats[k].starved = obsv.NewHistogram(10*time.Microsecond, 1.6, 24)
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
	s.eng = engine.New(engine.Config{
		Ensemble: cfg.Ensemble, Scheduler: cfg.Scheduler, Rewarder: cfg.Rewarder,
		Estimator: cfg.Estimator, Replicas: s.replicas, BaseExec: engine.PlanningCost(cfg.Ensemble.Models),
		Classes: cfg.Classes, Admission: cfg.Admission, Cache: cfg.Cache, Adapt: cfg.Adapt,
	})
	if cfg.Faults.Enabled() {
		// The attempt keys carry the model, so the models share one seed.
		for k, m := range cfg.Ensemble.Models {
			s.faulty[k] = model.NewFaulty(m, cfg.Faults)
		}
	}
	return s
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
		PartCommits: s.nPartCommits.Load(),
		EarlyTasks:  s.nEarly.Load(),
		EarlyUsed:   s.nEarlyUsed.Load(),
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
	now := s.clk.now()
	s.breakerMu.Lock()
	for k := range st.Models {
		c := &s.mstats[k]
		b := s.breakers[k]
		mh := ModelHealth{
			Name:                s.cfg.Ensemble.Models[k].Name(),
			Breaker:             breakerName(b.state),
			ConsecutiveFailures: b.consec,
			BreakerTrips:        b.trips,
			Transient:           c.transient.Load(),
			Stragglers:          c.stragglers.Load(),
			Crashes:             c.crashes.Load(),
			Timeouts:            c.timeouts.Load(),
			Panics:              c.panics.Load(),
			Retries:             c.retries.Load(),
			Hedges:              c.hedges.Load(),
			HedgeWins:           c.hedgeWins.Load(),

			BacklogSeconds: time.Duration(c.backlog.Load()).Seconds(),
			TimerOvershoot: c.overshoot.Snapshot(),
			Starved:        c.starved.Snapshot(),
		}
		mh.ReplicaExecuted = make([]uint64, s.replicas[k])
		mh.ReplicaFailures = make([]uint64, s.replicas[k])
		for r := range mh.ReplicaExecuted {
			mh.ReplicaExecuted[r] = s.rstats[k][r].executed.Load()
			mh.ReplicaFailures[r] = s.rstats[k][r].failures.Load()
			mh.Executed += mh.ReplicaExecuted[r]
			mh.Failures += mh.ReplicaFailures[r]
		}
		if f := s.faulty[k]; f != nil {
			mh.Down = f.Down(now)
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
	// Query.Arrival is the one instant the engine's arrival path —
	// adaptation, the cache, admission — sees for this request.
	now := s.clk.now()
	req := &request{
		seq:    s.nSubmitted.Add(1),
		Query:  engine.Query{Class: ci, Arrival: now, Deadline: now + deadline},
		sample: sample,
		done:   make(chan Result, 1),
	}
	req.live.Store(uint32(ensemble.Full(len(s.taskCh))))
	if s.obs != nil {
		req.tr = &obsv.DecisionTrace{
			ID:       req.seq,
			SampleID: sample.ID,
			CameraID: sample.CameraID,
			Queued:   req.Arrival,
			Deadline: req.Deadline,
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
	// The send hands the request to the coordinator, its only resolver from
	// then on. Under lifeMu it comes before the coordinator's shutdown sweep
	// or not at all; a request not sent is still this goroutine's to reject.
	s.lifeMu.Lock()
	sent := !s.closed
	if sent {
		s.clk.sent(toCoordinator, 1)
		select {
		case s.events <- event{kind: evSubmit, req: req}:
		default:
			// Event loop saturated: reject explicitly instead of blocking
			// the caller or dropping the request on the floor.
			s.clk.sent(toCoordinator, -1)
			sent = false
		}
	}
	s.lifeMu.Unlock()
	if !sent {
		s.resolve(req, Result{Missed: true, Rejected: true})
	}
	return req.done
}

// Now is the server's current virtual time: on the wall clock, the wall
// time since New over Config.TimeScale; under Replay, the time since the
// replay began. A model can read it to vary what it draws over a run.
func (s *Server) Now() time.Duration { return s.clk.now() }

// latency is how long ago r arrived.
func (s *Server) latency(r *request) time.Duration { return s.clk.now() - r.Arrival }

// wallSpan is virtual span d in wall time, for the instruments that report
// wall time.
func (s *Server) wallSpan(d time.Duration) time.Duration {
	return time.Duration(float64(d) * s.cfg.TimeScale)
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
	// free is when the replica ran out of work: the target of its last
	// wait, or the host instant its last attempt ended without one.
	var free time.Duration
	for {
		t, staged, alive := s.nextTask(ctx, k)
		if !alive {
			return
		}
		// A staged task starts when the replica freed, or when it was
		// queued if later, not when this goroutine got round to it: a late
		// wake is the host's, not the model's. A task handed to a parked
		// replica starts when the replica takes it.
		start := s.clk.now()
		if staged {
			start = max(free, t.sent)
		}
		if free, alive = s.runTask(ctx, w, src, m, inj, k, r, t, start); !alive {
			return
		}
	}
}

// nextTask takes a replica's next task off model k's queue; alive is false
// when the runtime context was cancelled first. A task staged behind the
// one the replica just finished is taken at once, and staged says so.
// Otherwise the replica parks, and if queries sit in the coordinator's
// buffer at that moment it is starved: there is work, and it waits for the
// coordinator to plan and hand it over. The wall time of each such wait is
// one observation in the model's starved histogram.
func (s *Server) nextTask(ctx context.Context, k int) (t *task, staged, alive bool) {
	select {
	case <-ctx.Done():
		return nil, false, false
	case t = <-s.taskCh[k]:
		s.clk.sent(k, -1)
		return t, true, true
	default:
	}
	var idle time.Duration
	starved := s.nBuffered.Load() > 0
	if starved {
		idle = s.clk.now()
	}
	s.clk.idle(k, 1)
	select {
	case <-ctx.Done():
		return nil, false, false
	case t = <-s.taskCh[k]:
		s.clk.idle(k, -1)
		s.clk.sent(k, -1)
		if starved {
			s.mstats[k].starved.Observe(s.wallSpan(s.clk.now() - idle))
		}
		return t, false, true
	}
}

// runTask executes one task on replica r of model k, its first attempt
// starting at start, and reports its completion event with free, when the
// replica ran out of the task's work (a skipped task's is its start). The
// replica counts as busy for the whole of it, a skipped task included, so a
// task is in its model's queue or on a busy replica until the coordinator
// hears of it. alive is false when the runtime context was cancelled and
// the worker must exit.
func (s *Server) runTask(ctx context.Context, w *waiter, src *rng.Source, m model.Model, inj *model.Faulty, k, r int, t *task, start time.Duration) (free time.Duration, alive bool) {
	rc := &s.rstats[k][r]
	rc.busy.Store(1)
	defer rc.busy.Store(0)
	e := event{kind: evTaskDone, req: t.req, k: k, free: start}
	if t.req.counts(t) {
		out, vlat, end, freed := s.execute(ctx, w, src, m, inj, k, t.req, start)
		if end == endDead {
			return e.free, false
		}
		e.ran, e.out, e.failed, e.cutoff, e.free = true, out, end != endOK, end == endCutoff, freed
		rc.executed.Add(1)
		if e.failed {
			rc.failures.Add(1)
		} else if s.eng.Adapt != nil {
			s.eng.Adapt.ObserveLatency(s.Now(), k, vlat)
		}
	}
	s.clk.sent(toCoordinator, 1)
	select {
	case s.events <- e:
	case <-ctx.Done():
		return e.free, false
	}
	return e.free, true
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
// fault, wait out the (possibly straggling) latency, hedged when slow
// and cut off at the deadline, run Predict panic-safely, and retry failed
// attempts with jittered exponential backoff while the budget lasts. Each
// attempt reseeds src from its key and draws from it in one order: the
// latency, then the hedge's latency, then the backoff jitter. The first
// attempt starts at start, a retry when its backoff has passed. end says how
// the chain ended; on endDead the worker must exit silently. vlat is the
// winning attempt's virtual service time — the sample the adaptation
// layer's latency histograms ingest. free is the target of the last
// attempt's wait, or the host instant if it ended without one.
func (s *Server) execute(ctx context.Context, w *waiter, src *rng.Source, m model.Model, inj *model.Faulty, k int, r *request, start time.Duration) (out model.Output, vlat time.Duration, end taskEnd, free time.Duration) {
	c := &s.mstats[k]
	for attempt := 0; ; attempt++ {
		key := attemptKey(r.seq, k, attempt)
		src.Reseed(rng.Mix(s.cfg.Seed^0x5e7e, key))
		lat := m.SampleLatency(src)
		// The attempt's start: the fault injector's crash windows, the
		// deadline budget and the wait target all take this one instant.
		now := start
		if attempt > 0 {
			now = s.clk.now()
		}
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
			// An attempt already out of budget arms nothing and counts no
			// timeout: the coordinator's deadline step resolves its request
			// at that instant, whichever of the two runs first.
			cutoff := r.Deadline - now
			if cutoff <= 0 {
				return out, 0, endCutoff, s.clk.now()
			}
			drawn := float64(lat) * dec.LatencyFactor
			// The winning attempt's service time: the primary's (possibly
			// straggling) draw unless the hedge wins below.
			vlat = time.Duration(drawn)
			hedge := never
			var hlat time.Duration
			// The hedging threshold consumes the live inflation factor:
			// under drift the frozen mean would fire hedges on every
			// (now-normal) slow attempt.
			mean := float64(m.MeanLatency())
			if s.eng.Adapt != nil {
				mean *= s.eng.Adapt.Inflation(k)
			}
			if drawn > hedgeFactor*mean {
				// Hedge: an attempt with no answer hedgeFactor mean
				// latencies in is re-issued then; the fresh attempt races
				// the slow one and the first to finish wins. Outputs are
				// deterministic, so the winner only decides latency.
				hlat = m.SampleLatency(src)
				if hd := time.Duration(hedgeFactor*mean + float64(hlat)); hd < vlat {
					hedge = hd
					c.hedges.Add(1)
					if s.obs != nil {
						r.obsHedges.Add(1)
					}
				}
			}
			wake, kind := earliestWake(vlat, hedge, cutoff)
			if kind == wakeCutoff {
				// Counted before the wait, so the deadline step, which
				// resolves the request at the wait's own target, reads it
				// whichever of the two wakes first.
				c.timeouts.Add(1)
				if s.obs != nil {
					r.obsTimeouts.Add(1)
				}
			}
			target := now + wake
			over, alive := w.until(ctx, target)
			if !alive {
				return out, 0, endDead, free
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
				return out, 0, endCutoff, target
			}
			if out, ok := s.safePredict(m, k, r.sample); ok {
				return out, vlat, endOK, target
			}
			// Predict panicked: contained by safePredict; the attempt
			// failed like a transient fault.
		}
		retry, alive := s.backoffUntil(ctx, w, src, r.Deadline, attempt)
		if !alive {
			return out, 0, endDead, free
		}
		if !retry {
			return out, 0, endFailed, s.clk.now()
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
func (s *Server) backoffUntil(ctx context.Context, w *waiter, src *rng.Source, deadline time.Duration, attempt int) (retry, alive bool) {
	if attempt >= maxRetries {
		return false, true
	}
	jit := time.Duration(src.Float64() * float64(retryBackoff))
	wake := s.clk.now() + retryBackoff<<uint(attempt) + jit
	if wake > deadline {
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
	// while its deadline is still to come.
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
		s.eng.Pass(began, c)
		s.passTime.Observe(s.wallSpan(s.clk.now() - began))
		s.nPartCommits.Store(s.eng.PartCommits())
		c.syncGauges()
		for k, w := range s.eng.Work() {
			s.mstats[k].backlog.Store(int64(w))
		}
	}
	d := never
	if next != never {
		d = next - now
	}
	c.wake.set(d)
}

// expire resolves what the deadlines have caught up with at now, before the
// turn's pass — a buffered request misses, and an in-flight one serves the
// outputs it holds — and returns the earliest deadline still to come among
// them (never when there is none).
func (c *coordinator) expire(now time.Duration) (next time.Duration) {
	s := c.s
	next = never
	ahead := func(r *request) bool {
		if now >= r.Deadline {
			return false
		}
		next = min(next, r.Deadline)
		return true
	}
	s.eng.Filter(func(it engine.Item) bool {
		r := it.(*request)
		keep := ahead(r)
		if !keep {
			s.resolve(r, Result{Missed: true})
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

// shutdown resolves every request the coordinator was sent: it closes the
// send first, so none arrives after the sweep of the event loop.
func (c *coordinator) shutdown() {
	c.s.lifeMu.Lock()
	c.s.closed = true
	c.s.lifeMu.Unlock()
	//schemble:maporder-ok each in-flight request resolves independently to its own channel; no ordered output derives from this sweep
	for r := range c.inflight {
		c.s.resolve(r, Result{Missed: true})
		delete(c.inflight, r)
	}
	c.missBuffered()
	// Reject the requests still queued in the event loop.
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

// onTaskDone books one finished (or skipped) task: the coordinator is the
// only writer of a request's outputs and counts, so a task that has ended
// counts as running until its event is handled here. An early task that
// ended before the commit leaves its output for the commit to find or,
// failed, its model for the commit to dispatch; one whose request committed
// onto a subset without its model, or settled, is dropped. The last task a
// committed request waited for settles it.
func (c *coordinator) onTaskDone(e event) {
	s, r := c.s, e.req
	if e.ran {
		s.breakerRecord(e.k, !e.failed, s.Now())
	}
	if c.pending[e.k] > 0 {
		c.pending[e.k]--
	}
	// Re-anchor the backlog estimate on the instant the replica freed, on
	// its own timeline, so latency jitter cannot accumulate drift: the
	// pending tasks are assumed spread evenly over the pool, replica i
	// finishing after (pending+i)/R more tasks (the slot estimates sum to
	// pending, preserving total capacity; with one replica this is the
	// scalar free + pending*exec).
	R := len(c.busyUntil[e.k])
	for i := range c.busyUntil[e.k] {
		c.busyUntil[e.k][i] = e.free + time.Duration((c.pending[e.k]+i)/R)*s.eng.Exec()[e.k]
	}
	// A skipped task books nothing, nor does one whose request has settled
	// or committed onto a subset without its model (an early task's).
	committed := r.Subset != ensemble.Empty
	if _, waiting := c.inflight[r]; !e.ran || committed && (!waiting || !r.Subset.Contains(e.k)) {
		return
	}
	switch {
	case e.failed && !committed:
		// The model goes back to the commit, and to the room it asks about.
		r.Early = r.Early.Without(e.k)
		return
	case e.failed:
		r.failed++
	default:
		if r.outs == nil {
			r.outs = make([]model.Output, len(c.busyUntil))
		}
		r.outs[e.k], r.ok = e.out, r.ok.With(e.k)
	}
	if !committed {
		// An early output, for the commit to find.
		return
	}
	if r.remaining--; r.remaining > 0 {
		return
	}
	delete(c.inflight, r)
	c.syncGauges()
	c.settle(r, e.cutoff)
}

// settle aggregates the outputs of r, whose tasks have all ended, and
// resolves it; cutoff says a deadline cutoff ended the last one.
func (c *coordinator) settle(r *request, cutoff bool) {
	s := c.s
	if r.ok == ensemble.Empty {
		// Every task failed permanently: nothing to aggregate.
		s.resolve(r, Result{Subset: r.Subset, Missed: true, Latency: s.latency(r)})
		return
	}
	// A request completed by a deadline cutoff is what the deadline step
	// degrades: what finished, finished in time. The cutoff wakes at the
	// deadline itself, so whether it or the coordinator's deadline step
	// gets there first must not decide the outcome.
	late := s.clk.now() > r.Deadline && !cutoff
	st := s.eng.Settle(&r.Query, r.outs, r.ok, r.failed, late)
	res := Result{
		Output:   st.Output,
		Subset:   r.ok,
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

// degrade is partial-ensemble degradation, for an in-flight request whose
// deadline arrived with some but not all subset outputs: aggregate what
// completed — the rest count as failed — and serve it degraded instead of
// missing. Still-running sibling tasks observe the resolved state and are
// skipped, and the events of those already running are dropped; exactly-once
// holds. A request without an output is left to its tasks.
func (c *coordinator) degrade(r *request) {
	s := c.s
	if r.ok == ensemble.Empty {
		return
	}
	st := s.eng.Settle(&r.Query, r.outs, r.ok, r.Subset.Size()-r.ok.Size(), false)
	delete(c.inflight, r)
	s.resolve(r, Result{
		Output:   st.Output,
		Subset:   r.ok,
		Degraded: st.Degraded,
		Latency:  s.latency(r),
	})
}

// Blocked implements engine.Executor: the models behind an open breaker,
// which plans must go around. A crash is learnt only from the tasks it
// fails, as a real deployment would learn it.
func (c *coordinator) Blocked(now time.Duration) ensemble.Subset {
	c.blocked = c.s.breakerBlocked(now)
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
// queues one task per model of sub without an early task — one that, as far
// as the coordinator has heard, produced an output or is still running;
// when there is none, it settles the request.
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
	// The early tasks of sub, done or running, stand in for the commit's
	// own; an early output from outside sub does not count.
	kept := r.Early & sub
	r.Subset, r.Level = sub, lvl
	r.live.Store(uint32(sub))
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
		r.tr.Early = kept
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
	r.ok &= sub
	r.remaining = (sub &^ r.ok).Size()
	if kept != ensemble.Empty {
		s.nEarlyUsed.Add(uint64(kept.Size()))
	}
	if r.remaining == 0 {
		c.settle(r, false)
		return
	}
	c.inflight[r] = true
	sent := s.clk.now()
	for _, k := range (sub &^ kept).Models() {
		if !c.dispatch(&task{req: r, k: k, sent: sent}, t) {
			// Unreachable given the pre-flight check; if it ever happens,
			// roll back instead of leaking: inflight forgets the request,
			// it resolves as rejected, and workers skip its already-queued
			// sibling tasks.
			delete(c.inflight, r)
			s.resolve(r, Result{Missed: true, Rejected: true})
		}
	}
}

// Early implements engine.Executor: it queues model k's task of a request
// still in the buffer, as Commit queues one, unless the model's queue is
// full.
func (c *coordinator) Early(t time.Duration, it engine.Item, k int) bool {
	s, r := c.s, it.(*request)
	if !c.dispatch(&task{req: r, k: k, sent: s.clk.now()}, t) {
		return false
	}
	s.nEarly.Add(1)
	return true
}

// dispatch queues tk at t and books it on its model's replica slot that
// drains first, exactly the assumption the scheduler's capacity model
// (core.Capacity) made when it judged feasibility; false when the model's
// queue is full, with nothing booked.
func (c *coordinator) dispatch(tk *task, t time.Duration) bool {
	s, k := c.s, tk.k
	slot, start := earliestSlot(c.busyUntil[k])
	if start < t {
		start = t
	}
	s.clk.sent(k, 1)
	select {
	case s.taskCh[k] <- tk:
		c.busyUntil[k][slot] = start + s.eng.Exec()[k]
		c.pending[k]++
		return true
	default:
		s.clk.sent(k, -1)
		return false
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
// running one, and an idle one can be handed two in one pass. The staged
// task starts when the replica frees, on the replica's timeline rather than
// when the host wakes its worker, and the pass that completion triggers runs
// during it (DESIGN.md "Online wrapper", "Wall-clock waits").
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

// resolve delivers res to r. Only r's owner calls it: SubmitClass before it
// sends r, the coordinator after; a request already resolved gets nothing
// more.
func (s *Server) resolve(r *request, res Result) {
	if s.claim(r, res) {
		r.done <- res
	}
}

// claim is resolve up to the delivery: it reports whether r was still
// unresolved, and if so resolves it — no model's output counts from then on
// — and books res. The caller owes r.done the result.
func (s *Server) claim(r *request, res Result) bool {
	if r.live.Swap(0) == 0 {
		return false
	}
	out := res.outcome()
	if t := r.tr; t != nil {
		t.Resolved = s.Now()
		t.Latency = t.Resolved - t.Queued
		t.Retries = int(r.obsRetries.Load())
		t.Hedges = int(r.obsHedges.Load())
		t.Timeouts = int(r.obsTimeouts.Load())
		t.Outcome = obsv.Outcomes[out]
		if !res.Missed {
			t.Served = res.Subset.Models()
		}
	}
	s.nOutcome[out].Add(1)
	if r.Class >= 0 && s.classStats != nil {
		cc := &s.classStats[r.Class]
		cc.outcome[out].Add(1)
		if res.Cached {
			cc.cached.Add(1)
		}
	}
	if r.tr != nil {
		s.obs.Done(*r.tr)
	}
	return true
}
