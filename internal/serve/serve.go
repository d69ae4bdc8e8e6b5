// Package serve is the real-time concurrent counterpart of the discrete
// event simulator: a pool of replica worker goroutines per deployed base
// model (Config.Replicas; one each by default) sharing that model's task
// queue, a coordinator goroutine that owns the query buffer and runs the
// scheduler against per-replica capacity (core.Capacity), and
// channel-based task dispatch.
//
// Dispatch is work-conserving: the coordinator commits a query while a
// chosen model's replica runs out of committed work within one task time
// (stageable), so one task waits staged in the model's queue behind each
// running one, and a replica that finishes starts it at once — while the
// coordinator is still planning the pass that completion triggered. The
// simulator binds only to idle replicas, virtual time having no planning
// cost to hide; the two agree whenever an arrival meets an idle fleet.
//
// Replicas can additionally micro-batch queued tasks (Config.Batching): a
// replica drains its queue up to MaxBatch tasks — lingering briefly for
// stragglers — and executes the batch as one unit whose duration follows
// the model's batch latency curve. Model execution is simulated by
// sleeping for the model's (scaled) latency, so examples can replay a
// trace in compressed wall-clock time while exercising the same
// scheduling logic the paper deploys. With every replica count at 1 and
// batching off, the runtime is bit-identical to the original
// single-worker design.
//
// Lifecycle: New -> Start(ctx) -> Submit()... -> Drain/Stop. Every request
// moves through an explicit state machine
//
//	submitted -> scored -> buffered -> committed -> resolved
//
// and resolves exactly once: with its aggregated output, as a deadline
// miss, or as an explicit rejection (Result.Rejected) when the runtime is
// saturated, draining, or stopped. Backpressure is bounded and visible:
// Submit rejects instead of blocking when the event loop is full, and
// dispatch rejects instead of leaking when a model's task queue is full.
// Stop abandons committed work; Drain finishes it first.
//
// The runtime also survives an unreliable substrate. Config.Faults (or
// FaultsPerModel) injects deterministic transient errors, stragglers and
// replica crashes via model.Faulty; Config.Tolerance opts into the
// mitigations: bounded retries with jittered backoff, hedged re-issue of
// straggling attempts, per-task deadline timeouts, a per-model circuit
// breaker the scheduler consults so subsets avoid failing models, and
// partial-ensemble degradation — a request whose deadline arrives with at
// least one (but not all) subset outputs resolves with Result.Degraded
// instead of missing. Both configs default to off, in which case the
// runtime behaves exactly like the fault-free original; a panicking
// Predict is always contained (the task fails, the worker survives).
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
	"schemble/internal/ensemble"
	"schemble/internal/model"
	"schemble/internal/obsv"
	"schemble/internal/qos"
	"schemble/internal/rcache"
	"schemble/internal/rng"
	"schemble/internal/trace"
)

// ErrNotStarted is returned by Drain when Start was never called.
var ErrNotStarted = errors.New("serve: server not started")

// blockHorizon is how far into the future an open-breaker (or crashed)
// model's availability is pushed when the scheduler is consulted: far
// enough that no deadline-feasible plan can include it.
const blockHorizon = time.Hour

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
	// Batching opts the replica pools into adaptive micro-batching; the
	// zero value disables it. See BatchConfig.
	Batching BatchConfig
	Seed     uint64

	// Faults injects deterministic failures into every model's task
	// execution (zero value: no injection). Durations are virtual, like
	// model latencies.
	Faults model.FaultConfig
	// FaultsPerModel, when entry k is in range, replaces Faults for model
	// k — e.g. to crash only one replica in a test.
	FaultsPerModel []model.FaultConfig
	// Tolerance opts into the fault-tolerant execution layer. The zero
	// value disables every mitigation and leaves the runtime bit-identical
	// to the fault-free worker loop; see DefaultTolerance.
	Tolerance ToleranceConfig

	// Obs opts into request-level observability: decision traces in a
	// bounded ring buffer plus per-outcome latency histograms. The zero
	// value disables every hook and keeps the hot path bit-identical
	// (observability never draws from the runtime's RNG).
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
	// frozen profiling numbers, a windowed detector emits drift events,
	// and the discrepancy predictor is incrementally recalibrated from
	// served outcomes. The zero value disables adaptation and keeps
	// every request on the frozen-profile code paths bit-identically.
	Adapt adapt.Config

	// Drift injects a deterministic service-time drift schedule
	// (test/soak infrastructure, like Faults): each attempt's drawn
	// latency is multiplied by Drift(model, virtualNow). nil means no
	// drift.
	Drift trace.LatencyDrift
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
	sample   *dataset.Sample
	arrived  time.Time
	deadline time.Time
	score    float64
	// rawScore is the predictor's uncalibrated score (equal to score
	// when adaptation is off); the recalibration reservoir pairs it with
	// the observed discrepancy on clean full-ensemble resolves.
	rawScore float64

	// class is the request's class index (-1 when the runtime is
	// classless); level is the degradation-ladder service level the
	// request was committed at (written under mu at commit time — a
	// committed level above LevelFull marks the result Degraded).
	class int
	level qos.Level

	// cacheable marks a request whose cache lookup missed (written in
	// SubmitClass before the request is shared, so resolve's fill-back
	// read is ordered by the event-channel send); cacheKey is the entry
	// it fills on a clean resolve.
	cacheable bool
	cacheKey  int

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
	//schemble:guardedby mu committed subset
	subset ensemble.Subset
	// deadlineTimer turns the deadline into an evDeadline event; resolve
	// stops it so a request resolved early fires nothing at its deadline.
	//schemble:guardedby mu deadline timer handle
	deadlineTimer *time.Timer
	done          chan Result

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
	crashes    atomic.Uint64 // attempts hitting a dead/crashing replica
	timeouts   atomic.Uint64 // attempts abandoned at the request deadline
	panics     atomic.Uint64 // Predict panics contained
	retries    atomic.Uint64 // retry attempts issued
	hedges     atomic.Uint64 // hedge attempts issued
	hedgeWins  atomic.Uint64 // hedge attempts that finished first
	// overshoot is how long past its asked-for duration each completed
	// model wait returned, in wall time: one observation per wait that ran
	// to its wake, so per executed task in a fault-free unbatched run.
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

// replicaCounters are one replica's health counters. busy is the batch
// size the replica is currently executing (0 = idle, 1 = a single task);
// executed/failures break the model's totals down per replica so the
// tolerance layer's effects are attributable to individual replicas.
type replicaCounters struct {
	busy     atomic.Int32
	executed atomic.Uint64
	failures atomic.Uint64
}

// Server is a running ensemble-serving instance.
type Server struct {
	cfg    Config
	tol    ToleranceConfig
	scale  float64
	taskCh []chan *task
	events chan event
	wg     sync.WaitGroup

	// replicas[k] is model k's resolved replica-pool size (>= 1);
	// maxBatch is the resolved micro-batch cap (1 = batching off).
	replicas []int
	maxBatch int

	// faulty[k] is model k's fault injector (nil when injection is off).
	faulty []*model.Faulty
	mstats []modelCounters
	// rstats[k][r] is replica r of model k's counters; forming[k] counts
	// tasks pulled off model k's queue into a forming or executing batch
	// whose completion event has not been sent yet (queue-depth gauges
	// exclude them, so QueueDepth[k]+Forming[k] counts every outstanding
	// task exactly once); batchHist[k][b-1] counts executed batches of
	// size b (nil when batching is off).
	rstats    [][]replicaCounters
	forming   []atomic.Int64
	batchHist [][]atomic.Uint64

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

	//schemble:guardedby srcMu deterministic RNG is not itself concurrency-safe
	src   *rng.Source
	srcMu sync.Mutex

	// obs collects decision traces and latency histograms; nil (all hooks
	// skipped) unless Config.Obs enables it. reqSeq numbers submissions for
	// trace IDs.
	obs    *obsv.Observer
	reqSeq atomic.Uint64

	// qosCtl is the overload controller: load estimator, degradation
	// ladder, and (in classed mode) per-class admission. Always non-nil;
	// classless configs get an estimator-only controller that admits
	// everything. classStats holds per-class outcome counters (nil when
	// classless); degradedSched plans LevelGreedy classes with a cheap
	// greedy planner — a dedicated instance, since scheduler scratch is
	// not shareable with cfg.Scheduler.
	qosCtl        *qos.Controller
	classStats    []classCounters
	degradedSched *core.Greedy

	// cache is the shared result cache, nil when Config.Cache is the zero
	// value (caching off).
	cache *rcache.Cache

	// adapt is the online-adaptation engine, nil when Config.Adapt is
	// the zero value (adaptation off); baseExec is the frozen planning
	// cost vector the coordinator copies its working exec slice from.
	adapt    *adapt.Engine
	baseExec []time.Duration

	// Health counters behind the Stats snapshot. buffered/inflight mirror
	// the coordinator's private structures.
	nSubmitted atomic.Uint64
	nServed    atomic.Uint64
	nDegraded  atomic.Uint64
	nMissed    atomic.Uint64
	nRejected  atomic.Uint64
	nBuffered  atomic.Int64
	nInflight  atomic.Int64
}

type task struct {
	req *request
	k   int
}

type evKind int

const (
	evSubmit evKind = iota
	evTaskDone
	evDeadline
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
	// them that TaskTimeout abandoned at the request deadline.
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
	// Down is true while the (injected) replica sits in a crash-recovery
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
	// QueueDepth[k] is model k's task-channel occupancy. Tasks a replica
	// has pulled into a forming batch are counted in Forming, never here.
	QueueDepth []int
	// Replicas[k] is model k's replica-pool size.
	Replicas []int
	// Forming[k] counts tasks pulled off model k's queue into a forming
	// or executing batch whose completion has not been reported yet;
	// QueueDepth[k]+Forming[k] counts each outstanding task exactly once.
	Forming []int
	// ReplicaBusy[k][r] is the batch size replica r of model k is
	// executing right now (0 = idle).
	ReplicaBusy [][]int
	// BatchSizes[k][b-1] counts batches of size b executed by model k's
	// replicas; nil when batching is disabled.
	BatchSizes [][]uint64
	// Models[k] is model k's fault/mitigation health.
	Models   []ModelHealth
	Draining bool

	// Load is the overload controller's smoothed pressure estimate (~0
	// idle, 1 at the target backlog); Ladder is the degradation ladder's
	// current rung and LadderState its name ("full-service",
	// "degrade-N"). Classes holds per-class outcome counters and SLO
	// attainment, in declaration order; nil when the runtime is
	// classless.
	Load        float64
	Ladder      int
	LadderState string
	Classes     []ClassStats

	// Cache is the result cache's counter snapshot; nil when caching is
	// off.
	Cache *rcache.Snapshot

	// Adapt is the online-adaptation engine's snapshot (live quantiles,
	// inflation factors, drift events, recalibration counters); nil when
	// adaptation is off.
	Adapt *adapt.Snapshot
}

// Healthy reports whether every model is schedulable: no breaker open and
// no replica inside a crash-recovery window.
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
	maxBatch := 1
	if cfg.Batching.enabled() {
		maxBatch = cfg.Batching.MaxBatch
		if maxBatch > maxBatchCap {
			maxBatch = maxBatchCap
		}
	}
	s := &Server{
		cfg:      cfg,
		tol:      cfg.Tolerance.withDefaults(),
		scale:    cfg.TimeScale,
		maxBatch: maxBatch,
		events:   make(chan event, 4*cfg.QueueDepth),
		src:      rng.New(cfg.Seed ^ 0x5e7e),
		obs:      obsv.NewObserver(cfg.Obs),
		cache:    rcache.New(cfg.Cache),
		mstats:   make([]modelCounters, m),
		breakers: make([]breakerState, m),
		replicas: make([]int, m),
		rstats:   make([][]replicaCounters, m),
		forming:  make([]atomic.Int64, m),
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
	adm := cfg.Admission
	if adm.Capacity <= 0 {
		adm.Capacity = bottleneckCapacity(cfg.Ensemble, s.replicas)
	}
	s.qosCtl = qos.New(qos.Config{Classes: cfg.Classes, Tuning: adm})
	if len(cfg.Classes) > 0 {
		s.classStats = make([]classCounters, len(cfg.Classes))
		s.degradedSched = &core.Greedy{Order: core.EDF}
	}
	if maxBatch > 1 {
		s.batchHist = make([][]atomic.Uint64, m)
		for k := range s.batchHist {
			s.batchHist[k] = make([]atomic.Uint64, maxBatch)
		}
	}
	for range cfg.Ensemble.Models {
		s.taskCh = append(s.taskCh, make(chan *task, cfg.QueueDepth))
	}
	// Frozen planning cost vector: mean latency with 10% headroom so
	// latency jitter does not turn feasible-looking plans into deadline
	// misses. With batching on, a task's capacity cost is the amortized
	// per-item share of a full batch, so the scheduler sees the
	// throughput gain. The coordinator copies its working exec slice
	// from this; with adaptation on, adapt.ExecInto rescales it by the
	// live inflation factor each planning pass.
	profiled := make([]time.Duration, m)
	s.baseExec = make([]time.Duration, m)
	for k, md := range cfg.Ensemble.Models {
		profiled[k] = md.MeanLatency()
		e := time.Duration(float64(md.MeanLatency()) * 1.1)
		if maxBatch > 1 {
			e = cfg.Batching.curve(k).Amortized(e, maxBatch)
		}
		s.baseExec[k] = e
	}
	s.adapt = adapt.New(cfg.Adapt, profiled, s.baseExec, s.replicas)
	for k, md := range cfg.Ensemble.Models {
		fc := cfg.Faults
		if k < len(cfg.FaultsPerModel) {
			fc = cfg.FaultsPerModel[k]
		}
		if !fc.Enabled() {
			continue
		}
		// Faulty.Attempt gets wall-clock nows but virtual latencies, so
		// CrashMTBF stays virtual while the recovery window is scaled to
		// wall time here.
		if fc.CrashRecovery <= 0 {
			fc.CrashRecovery = 2 * time.Second
		}
		fc.CrashRecovery = time.Duration(float64(fc.CrashRecovery) * s.scale)
		fc.Seed = fc.Seed*0x9e3779b97f4a7c15 + uint64(k) + 1
		if s.faulty == nil {
			s.faulty = make([]*model.Faulty, m)
		}
		s.faulty[k] = model.NewFaulty(md, fc)
	}
	return s
}

// bottleneckCapacity estimates the fleet's sustainable full-ensemble
// service rate in requests per virtual second: the slowest model's pool
// throughput, min over k of replicas[k] / meanLatency[k]. This is the
// admission controller's default Capacity; an explicit
// AdmissionConfig.Capacity overrides it.
func bottleneckCapacity(e *ensemble.Ensemble, replicas []int) float64 {
	capacity := 0.0
	for k, md := range e.Models {
		lat := md.MeanLatency().Seconds()
		if lat <= 0 {
			continue
		}
		c := float64(replicas[k]) / lat
		if capacity <= 0 || c < capacity {
			capacity = c
		}
	}
	if capacity <= 0 {
		capacity = 1
	}
	return capacity
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
	//schemble:wallclock virtual time is anchored to the wall clock once, at Start; every virtual timestamp derives from this instant
	s.start = time.Now()
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
		Served:      s.nServed.Load(),
		Degraded:    s.nDegraded.Load(),
		Missed:      s.nMissed.Load(),
		Rejected:    s.nRejected.Load(),
		Buffered:    int(s.nBuffered.Load()),
		InFlight:    int(s.nInflight.Load()),
		QueueDepth:  make([]int, len(s.taskCh)),
		Replicas:    append([]int(nil), s.replicas...),
		Forming:     make([]int, len(s.taskCh)),
		ReplicaBusy: make([][]int, len(s.taskCh)),
		Models:      make([]ModelHealth, len(s.taskCh)),
		Draining:    draining,
	}
	st.Resolved = st.Served + st.Degraded + st.Missed + st.Rejected
	load, ladder, snaps := s.qosCtl.Snapshot()
	st.Load = load
	st.Ladder = ladder
	st.LadderState = qos.LadderName(ladder)
	if s.classStats != nil {
		st.Classes = s.classStatsFrom(snaps)
	}
	if s.cache != nil {
		cs := s.cache.Snapshot()
		st.Cache = &cs
	}
	if s.adapt != nil {
		st.Adapt = s.adapt.Snapshot()
	}
	for k, ch := range s.taskCh {
		st.QueueDepth[k] = len(ch)
		st.Forming[k] = int(s.forming[k].Load())
		busy := make([]int, s.replicas[k])
		for r := range busy {
			busy[r] = int(s.rstats[k][r].busy.Load())
		}
		st.ReplicaBusy[k] = busy
	}
	if s.batchHist != nil {
		st.BatchSizes = make([][]uint64, len(s.taskCh))
		for k := range s.batchHist {
			sizes := make([]uint64, s.maxBatch)
			for b := range sizes {
				sizes[b] = s.batchHist[k][b].Load()
			}
			st.BatchSizes[k] = sizes
		}
	}
	//schemble:wallclock health snapshot: crash-recovery windows are wall-clock scheduled by the fault injector
	wallNow := time.Now()
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

			TimerOvershoot: c.overshoot.Snapshot(),
			Starved:        c.starved.Snapshot(),
		}
		mh.ReplicaExecuted = make([]uint64, s.replicas[k])
		mh.ReplicaFailures = make([]uint64, s.replicas[k])
		for r := range mh.ReplicaExecuted {
			mh.ReplicaExecuted[r] = s.rstats[k][r].executed.Load()
			mh.ReplicaFailures[r] = s.rstats[k][r].failures.Load()
		}
		if s.tol.BreakerThreshold > 0 {
			b := s.breakers[k]
			mh.Breaker = breakerName(b.state)
			mh.ConsecutiveFailures = b.consec
			mh.BreakerTrips = b.trips
		}
		if s.faulty != nil && s.faulty[k] != nil {
			mh.Down = s.faulty[k].Down(wallNow)
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
	ci := s.qosCtl.ClassIndex(class)
	if ci >= 0 && deadline <= 0 {
		deadline = s.qosCtl.Class(ci).Deadline
	}
	//schemble:wallclock arrival is wall-anchored; deadlines and virtual timestamps are derived from it via the configured TimeScale
	now := time.Now()
	// arrival is the one virtual instant the engine-agnostic layers —
	// adaptation, the cache, admission — are handed for this request, as
	// the simulator hands them its clock.
	arrival := time.Duration(float64(now.Sub(s.start)) / s.scale)
	req := &request{
		sample:   sample,
		arrived:  now,
		deadline: now.Add(time.Duration(float64(deadline) * s.scale)),
		class:    ci,
		done:     make(chan Result, 1),
	}
	if s.obs != nil {
		req.tr = &obsv.DecisionTrace{
			ID:       s.reqSeq.Add(1),
			SampleID: sample.ID,
			CameraID: sample.CameraID,
			Queued:   arrival,
			Deadline: arrival + deadline,
		}
		if ci >= 0 {
			req.tr.Class = s.qosCtl.Class(ci).Name
			req.tr.Ladder = s.qosCtl.Ladder()
		}
	}
	s.nSubmitted.Add(1)
	if ci >= 0 {
		s.classStats[ci].submitted.Add(1)
	}
	if draining || ctx.Err() != nil {
		s.resolve(req, Result{Missed: true, Rejected: true})
		return req.done
	}
	req.score = 0.5
	if s.cfg.Estimator != nil {
		req.score = s.cfg.Estimator.Predict(sample)
	}
	req.rawScore = req.score
	if s.adapt != nil {
		s.adapt.ObserveScore(arrival, req.rawScore)
		req.score = s.adapt.Calibrate(req.rawScore)
	}
	req.advance(stateScored)
	if req.tr != nil {
		req.tr.Score = req.score
		//schemble:wallclock converts a wall instant to virtual time against the Start anchor
		req.tr.Scored = time.Duration(float64(time.Since(s.start)) / s.scale)
	}
	if s.cache != nil {
		v, key, outcome := s.cache.Lookup(arrival, sample.Features, req.score)
		if req.tr != nil {
			req.tr.Cache = outcome
		}
		// Exhaustive over the cache taxonomy (enforced by the
		// exhaustiveoutcome analyzer): a new cache outcome must decide its
		// scheduling consequence here.
		switch outcome {
		case obsv.CacheOutcomeHit:
			// Zero-cost plan: the cached answer resolves immediately,
			// skipping admission, the buffer, the scheduler, dispatch, and
			// the deadline timer entirely.
			s.resolve(req, Result{
				Output: v.Output,
				Subset: v.Subset,
				Cached: true,
				//schemble:wallclock latency is the wall-clock distance from arrival, descaled to virtual time
				Latency: time.Duration(float64(time.Since(req.arrived)) / s.scale),
			})
			return req.done
		case obsv.CacheOutcomeMiss:
			// Cacheable: fill the entry when the request resolves cleanly.
			req.cacheable, req.cacheKey = true, key
		case obsv.CacheOutcomeBypass:
			// Too hard (or unkeyable): the ensemble always runs.
		}
	}
	if ci >= 0 && !s.qosCtl.Admit(arrival, ci) {
		// Admission-controlled shed: an explicit rejection decided by
		// class quota and ladder state. It comes after the cache, so only a
		// request that needs model capacity can be shed or spend a token.
		s.classStats[ci].shed.Add(1)
		s.resolve(req, Result{Missed: true, Rejected: true})
		return req.done
	}
	select {
	case s.events <- event{kind: evSubmit, req: req}:
	default:
		// Event loop saturated: reject explicitly instead of blocking the
		// caller or dropping the request on the floor.
		s.resolve(req, Result{Missed: true, Rejected: true})
		return req.done
	}
	if ctx.Err() != nil {
		// Raced shutdown: the coordinator's drain sweep may already be
		// past; resolve directly rather than leaving the caller to the
		// deadline-timer fallback. resolve's exactly-once guarantee makes
		// the duplicate path harmless.
		s.resolve(req, Result{Missed: true, Rejected: true})
		return req.done
	}
	// The timer turns the deadline into an event so the coordinator can
	// resolve never-scheduled requests. Delivery is lossless: the timer
	// goroutine blocks until the coordinator takes the event, and falls
	// back to resolving directly once the runtime is shutting down.
	//schemble:wallclock deadline timers fire in wall time; the deadline itself was derived from the virtual budget at Submit
	t := time.AfterFunc(time.Until(req.deadline), func() {
		if req.isResolved() {
			return
		}
		select {
		case s.events <- event{kind: evDeadline, req: req}:
		case <-ctx.Done():
			s.resolve(req, Result{Missed: true})
		}
	})
	// The coordinator already has the request and may have resolved it.
	req.mu.Lock()
	if req.state == stateResolved {
		t.Stop()
	} else {
		req.deadlineTimer = t
	}
	req.mu.Unlock()
	return req.done
}

// worker is replica r of model k: it pulls tasks off the model's shared
// queue and executes them serially — one at a time, or as micro-batches
// when batching is enabled. Tasks whose request already resolved
// (rejected, direct-deadline, degraded, or shutdown) are skipped but
// still reported, so the coordinator's backlog accounting stays truthful.
// A task whose attempt chain fails permanently is reported as failed
// rather than killing the worker, so one bad input or fault window can
// never strand the replica.
func (s *Server) worker(ctx context.Context, k, r int) {
	m := s.cfg.Ensemble.Models[k]
	var inj *model.Faulty
	if s.faulty != nil {
		inj = s.faulty[k]
	}
	w := newWaiter()
	for {
		t, alive := s.nextTask(ctx, k)
		if !alive {
			return
		}
		if s.maxBatch > 1 {
			if !s.runBatch(ctx, w, m, inj, k, r, s.formBatch(ctx, w, k, t)) {
				return
			}
			continue
		}
		if !s.runTask(ctx, w, m, inj, k, r, t) {
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
		return t, true
	default:
	}
	clock := func() time.Time {
		//schemble:wallclock the starved instrument times a replica's idle wait in wall time, on the monotonic clock
		return time.Now()
	}
	var idle time.Time
	starved := s.nBuffered.Load() > 0
	if starved {
		idle = clock()
	}
	select {
	case <-ctx.Done():
		return nil, false
	case t = <-s.taskCh[k]:
		if starved {
			s.mstats[k].starved.Observe(clock().Sub(idle))
		}
		return t, true
	}
}

// runTask executes one unbatched task on replica r of model k and reports
// its completion event. Returns false when the runtime context was
// cancelled and the worker must exit.
func (s *Server) runTask(ctx context.Context, w *waiter, m model.Model, inj *model.Faulty, k, r int, t *task) bool {
	s.forming[k].Add(1)
	defer s.forming[k].Add(-1)
	var done, ran, failed, cutoff bool
	if !t.req.isResolved() {
		ran = true
		rc := &s.rstats[k][r]
		rc.busy.Store(1)
		out, vlat, end := s.execute(ctx, w, m, inj, k, t.req)
		rc.busy.Store(0)
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
		} else if s.adapt != nil {
			//schemble:wallclock observation is timestamped at completion in virtual time against the Start anchor
			vnow := time.Duration(float64(time.Since(s.start)) / s.scale) //schemble:guardedby-ok start is written once in Start before the workers launch; reads are ordered by goroutine creation
			s.adapt.ObserveLatency(vnow, k, r, vlat)
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
	endCutoff                // abandoned at the request deadline by TaskTimeout
	endDead                  // the runtime context was cancelled mid-attempt
)

// execute runs one task's attempt chain for model k: draw the injected
// fault, sleep the (scaled, possibly straggling) latency with optional
// hedging and deadline cutoff, run Predict panic-safely, and retry failed
// attempts with jittered exponential backoff while the budget lasts. end
// says how the chain ended; on endDead the worker must exit silently. vlat
// is the winning attempt's virtual service time — the sample the
// adaptation layer's latency sketches ingest.
func (s *Server) execute(ctx context.Context, w *waiter, m model.Model, inj *model.Faulty, k int, r *request) (out model.Output, vlat time.Duration, end taskEnd) {
	c := &s.mstats[k]
	timedOut := func() {
		c.timeouts.Add(1)
		if s.obs != nil {
			r.obsTimeouts.Add(1)
		}
	}
	for attempt := 0; ; attempt++ {
		s.srcMu.Lock()
		lat := m.SampleLatency(s.src)
		s.srcMu.Unlock()
		//schemble:wallclock the attempt's wall-clock start: the drift schedule, the fault injector's crash windows, the deadline budget and the wait target are all taken from this one instant
		now := time.Now()
		drift := 1.0
		if s.cfg.Drift != nil {
			vnow := time.Duration(float64(now.Sub(s.start)) / s.scale) //schemble:guardedby-ok start is written once in Start before the workers launch; reads are ordered by goroutine creation
			drift = s.cfg.Drift(k, vnow)
			lat = time.Duration(float64(lat) * drift)
		}
		dec := model.Decision{Kind: model.FaultNone, LatencyFactor: 1}
		if inj != nil {
			dec = inj.Attempt(now, lat)
		}
		if dec.Kind == model.FaultCrash || dec.Kind == model.FaultTransient {
			if dec.Kind == model.FaultCrash {
				c.crashes.Add(1)
			} else {
				c.transient.Add(1)
			}
			retry, alive := s.backoffUntil(ctx, w, r.deadline, attempt)
			if !alive {
				return out, 0, endDead
			}
			if retry {
				c.retries.Add(1)
				if s.obs != nil {
					r.obsRetries.Add(1)
				}
				continue
			}
			return out, 0, endFailed
		}
		if dec.Kind == model.FaultStraggler {
			c.stragglers.Add(1)
		}
		// The attempt's three possible ends are all known before it starts:
		// its own (possibly straggling) draw, a hedge's, and the deadline.
		// An attempt already out of budget arms nothing.
		cutoff := never
		if s.tol.TaskTimeout {
			if cutoff = r.deadline.Sub(now); cutoff <= 0 {
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
		if dec.Kind == model.FaultStraggler && s.tol.HedgeFactor > 0 {
			// Hedge: re-issue the attempt after HedgeFactor mean
			// latencies; the fresh (non-straggling) attempt races the
			// straggler and the first to finish wins. Outputs are
			// deterministic, so the winner only decides latency.
			s.srcMu.Lock()
			hlat = m.SampleLatency(s.src)
			s.srcMu.Unlock()
			hlat = time.Duration(float64(hlat) * drift)
			// The hedging threshold consumes the live inflation factor:
			// under drift the frozen mean would fire hedges on every
			// (now-normal) slow attempt.
			mean := float64(m.MeanLatency())
			if s.adapt != nil {
				mean *= s.adapt.Inflation(k)
			}
			if hd := time.Duration((s.tol.HedgeFactor*mean + float64(hlat)) * s.scale); hd < d {
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
		// Predict panicked: contained by safePredict; treat like a
		// transient fault.
		retry, alive := s.backoffUntil(ctx, w, r.deadline, attempt)
		if !alive {
			return out, 0, endDead
		}
		if retry {
			c.retries.Add(1)
			if s.obs != nil {
				r.obsRetries.Add(1)
			}
			continue
		}
		return out, 0, endFailed
	}
}

// backoffUntil decides whether a failed attempt may retry, sleeping the
// jittered exponential backoff first. deadline is the request's — for
// batches, the latest live deadline in the batch. alive is false when the
// runtime context was cancelled during the sleep.
func (s *Server) backoffUntil(ctx context.Context, w *waiter, deadline time.Time, attempt int) (retry, alive bool) {
	if attempt >= s.tol.MaxRetries {
		return false, true
	}
	base := s.tol.RetryBackoff
	s.srcMu.Lock()
	jit := time.Duration(s.src.Float64() * float64(base))
	s.srcMu.Unlock()
	//schemble:wallclock retry budget check: backoff is only worth paying if it still fits before the wall-clock deadline
	wake := time.Now().Add(time.Duration(float64(base<<uint(attempt)+jit) * s.scale))
	if s.tol.TaskTimeout && wake.After(deadline) {
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

// coordinate owns the buffer and the scheduler.
func (s *Server) coordinate(ctx context.Context) {
	var buffer []*request
	m := s.cfg.Ensemble.M()
	exec := make([]time.Duration, m)
	copy(exec, s.baseExec)
	// busyUntil[k][r] approximates, in unscaled virtual time since start,
	// when replica r of model k drains the work committed to it;
	// pending[k] counts dispatched-but-unfinished tasks so completions can
	// re-anchor the estimate on reality (mirroring sim.onTaskDone) instead
	// of accumulating jitter.
	busyUntil := make([][]time.Duration, m)
	for k := range busyUntil {
		busyUntil[k] = make([]time.Duration, s.replicas[k])
	}
	pending := make([]int, m)
	// inflight tracks committed-but-unfinished requests so shutdown can
	// resolve them and drain knows when it is done.
	inflight := make(map[*request]bool)
	draining := false

	now := func() time.Duration {
		//schemble:wallclock converts a wall instant to virtual time against the Start anchor
		return time.Duration(float64(time.Since(s.start)) / s.scale) //schemble:guardedby-ok start is written once in Start before this goroutine launches; reads are ordered by goroutine creation
	}
	syncGauges := func() {
		s.nBuffered.Store(int64(len(buffer)))
		s.nInflight.Store(int64(len(inflight)))
	}
	latency := func(r *request) time.Duration {
		//schemble:wallclock latency is the wall-clock distance from arrival, descaled to virtual time
		return time.Duration(float64(time.Since(r.arrived)) / s.scale)
	}

	// lastSlack is the fraction of the previous planning pass's buffer the
	// scheduler left unplaced — the controller's "capacity exhausted"
	// signal alongside the raw backlog.
	lastSlack := 0.0

	// Per-pass scratch, owned by the coordinator and reused across passes
	// so a pass allocates only what a commit itself needs: the planned
	// groups' buffer positions and ladder levels, the scheduler's query
	// view, the marks of buffer positions that left this pass, and the
	// capacity view that pushes blocked models out of reach.
	var (
		mainIdx, degIdx []int
		mainLvl, degLvl []qos.Level
		infos           []core.QueryInfo
		removed         []bool
		avail           = make(core.Capacity, m)
		blockedSlots    = make([][]time.Duration, m)
	)
	for k := range blockedSlots {
		blockedSlots[k] = make([]time.Duration, s.replicas[k])
	}

	dispatch := func() {
		// Shed requests that resolved while buffered (direct deadline
		// delivery during saturation).
		live := buffer[:0]
		for _, r := range buffer {
			if !r.isResolved() {
				live = append(live, r)
			}
		}
		buffer = live
		t := now()
		// Feed the overload controller: outstanding work everywhere in the
		// engine (buffer + model queues + forming batches) plus the last
		// pass's scheduler slack. The estimate drives admission and
		// Retry-After only — never the plan — so classless results are
		// untouched.
		backlog := len(buffer)
		for k := range s.taskCh {
			backlog += len(s.taskCh[k]) + int(s.forming[k].Load())
		}
		s.qosCtl.Observe(t, backlog, lastSlack)
		if s.adapt != nil {
			// Refresh the planning cost vector from the live quantile
			// sketches so the whole pass sees one consistent cost view.
			s.adapt.ExecInto(exec)
		}
		if len(buffer) == 0 {
			syncGauges()
			return
		}
		// Health consultation: models behind an open breaker or inside a
		// crash-recovery window are pushed beyond any feasible deadline so
		// the scheduler plans subsets around them.
		blocked := s.breakerBlocked(t)
		if s.faulty != nil {
			//schemble:wallclock crash-recovery windows are wall-clock scheduled by the fault injector
			wallNow := time.Now()
			for k, f := range s.faulty {
				if f != nil && f.Down(wallNow) {
					blocked = blocked.With(k)
				}
			}
		}
		// room reports whether some model of set can take a commit now.
		room := func(set ensemble.Subset) bool {
			for k, slots := range busyUntil {
				if set.Contains(k) && stageable(slots, t, exec[k]) {
					return true
				}
			}
			return false
		}
		// commitGroup commits a query only onto a subset with room, and a
		// pass only ever makes replicas busier. So when no unblocked model
		// has room, whatever the scheduler would plan, nothing commits and
		// nothing is rejected: every query stays buffered, which is slack
		// 1. Skip the planning.
		if !room(ensemble.Full(m) &^ blocked) {
			lastSlack = 1
			syncGauges()
			return
		}
		mkAvail := func() core.Capacity {
			if blocked == ensemble.Empty {
				return busyUntil
			}
			for k := range avail {
				avail[k] = busyUntil[k]
				if blocked.Contains(k) {
					for i := range blockedSlots[k] {
						blockedSlots[k][i] = t + blockHorizon
					}
					avail[k] = blockedSlots[k]
				}
			}
			return avail
		}
		mkInfos := func(idx []int) []core.QueryInfo {
			infos = infos[:0]
			for pi, bi := range idx {
				r := buffer[bi]
				infos = append(infos, core.QueryInfo{
					ID: pi,
					//schemble:guardedby-ok start is written once in Start before the coordinator launches; reads are ordered by goroutine creation
					Arrival: time.Duration(float64(r.arrived.Sub(s.start)) / s.scale),
					//schemble:guardedby-ok start is written once in Start before the coordinator launches; reads are ordered by goroutine creation
					Deadline: time.Duration(float64(r.deadline.Sub(s.start)) / s.scale),
					Score:    r.score,
				})
			}
			return infos
		}
		// removed marks buffer positions whose request left the buffer this
		// pass (committed or rejected); everything else stays buffered.
		removed = removed[:0]
		for range buffer {
			removed = append(removed, false)
		}
		commitGroup := func(idx []int, lvls []qos.Level, plan core.Plan) {
			for pi, bi := range idx {
				r := buffer[bi]
				// Unhealthy models are stripped even if the scheduler chose
				// them; a subset emptied by the mask stays buffered.
				sub := plan.Subset(pi) &^ blocked
				if sub == ensemble.Empty {
					continue
				}
				if lvls != nil && lvls[pi] > qos.LevelFull {
					// Degradation ladder: cap the planned subset to the
					// class's service level, keeping the cheapest models.
					sub = qos.TruncateSubset(sub, qos.SubsetCap(lvls[pi], m), exec)
				}
				// Commit only when at least one chosen model has room; the
				// others' tasks queue behind what their replicas hold.
				if !room(sub) {
					continue
				}
				// A saturated task queue means dispatch would leak: reject
				// explicitly before committing anything. The coordinator is
				// the channels' only sender, so this pre-flight check cannot
				// race another producer.
				saturated := false
				for _, k := range sub.Models() {
					if len(s.taskCh[k]) == cap(s.taskCh[k]) {
						saturated = true
						break
					}
				}
				if saturated {
					removed[bi] = true
					s.resolve(r, Result{Missed: true, Rejected: true})
					continue
				}
				r.mu.Lock()
				if r.state == stateResolved {
					r.mu.Unlock()
					removed[bi] = true
					continue
				}
				r.subset = sub
				r.remaining = sub.Size()
				r.outs = make([]model.Output, m)
				r.state = stateCommitted
				if lvls != nil {
					r.level = lvls[pi]
				}
				if r.tr != nil {
					// Decision context: what the runtime looked like when the
					// subset was locked in.
					r.tr.Committed = t
					r.tr.Subset = sub.Models()
					r.tr.Alternatives = s.alternatives(r.score)
					depths := make([]int, len(s.taskCh))
					forming := make([]int, len(s.taskCh))
					for k, ch := range s.taskCh {
						depths[k] = len(ch)
						forming[k] = int(s.forming[k].Load())
					}
					r.tr.QueueDepths = depths
					r.tr.Forming = forming
					// Per-model earliest replica availability: the capacity
					// signal the scheduler keyed its feasibility checks on.
					bu := make([]time.Duration, m)
					for k, slots := range busyUntil {
						_, bu[k] = earliestSlot(slots)
					}
					r.tr.BusyUntil = bu
					r.tr.Blocked = blocked.Models()
					if s.adapt != nil {
						r.tr.Drift = s.adapt.ActiveDrift()
					}
				}
				r.mu.Unlock()
				removed[bi] = true
				inflight[r] = true
				for _, k := range sub.Models() {
					// The task lands on the earliest-available replica slot,
					// exactly the assumption the scheduler's capacity model
					// (core.Capacity) made when it judged feasibility.
					slot, start := earliestSlot(busyUntil[k])
					if start < t {
						start = t
					}
					select {
					case s.taskCh[k] <- &task{req: r, k: k}:
						busyUntil[k][slot] = start + exec[k]
						pending[k]++
					default:
						// Unreachable given the pre-flight check; if it ever
						// happens, roll back instead of leaking: busyUntil is
						// untouched for this model, inflight forgets the
						// request, it resolves as rejected, and workers skip
						// its already-queued sibling tasks.
						delete(inflight, r)
						s.resolve(r, Result{Missed: true, Rejected: true})
					}
				}
			}
		}
		if s.classStats == nil {
			// Classless: one plan over the whole buffer with the configured
			// scheduler — exactly the pre-class runtime.
			mainIdx = mainIdx[:0]
			for i := range buffer {
				mainIdx = append(mainIdx, i)
			}
			commitGroup(mainIdx, nil, s.cfg.Scheduler.Schedule(t, mkInfos(mainIdx), mkAvail(), exec, s.cfg.Rewarder))
		} else {
			// Classed: partition the buffer by the ladder's current service
			// level. Full and capped classes keep the configured scheduler;
			// greedy-level classes are planned afterwards — against whatever
			// capacity the protected tiers left behind — with the cheap
			// greedy planner. Requests whose class climbed to shed after
			// they were admitted are clamped to greedy: admission decisions
			// are not retroactive.
			mainIdx, degIdx = mainIdx[:0], degIdx[:0]
			mainLvl, degLvl = mainLvl[:0], degLvl[:0]
			for i, r := range buffer {
				lvl := s.qosCtl.Level(r.class)
				if lvl > qos.LevelGreedy {
					lvl = qos.LevelGreedy
				}
				if lvl == qos.LevelGreedy {
					degIdx = append(degIdx, i)
					degLvl = append(degLvl, lvl)
				} else {
					mainIdx = append(mainIdx, i)
					mainLvl = append(mainLvl, lvl)
				}
			}
			if len(mainIdx) > 0 {
				commitGroup(mainIdx, mainLvl,
					s.cfg.Scheduler.Schedule(t, mkInfos(mainIdx), mkAvail(), exec, s.cfg.Rewarder))
			}
			if len(degIdx) > 0 {
				commitGroup(degIdx, degLvl,
					s.degradedSched.Schedule(t, mkInfos(degIdx), mkAvail(), exec, s.cfg.Rewarder))
			}
		}
		planned := len(buffer)
		kept := buffer[:0]
		for i, r := range buffer {
			if !removed[i] {
				kept = append(kept, r)
			}
		}
		buffer = kept
		if planned > 0 {
			lastSlack = float64(len(buffer)) / float64(planned)
		}
		syncGauges()
	}

	shutdown := func() {
		for _, r := range buffer {
			s.resolve(r, Result{Missed: true})
		}
		buffer = nil
		//schemble:maporder-ok each in-flight request resolves independently to its own channel; no ordered output derives from this sweep
		for r := range inflight {
			s.resolve(r, Result{Missed: true})
			delete(inflight, r)
		}
		syncGauges()
		// Drain events that raced with shutdown so their requests still
		// resolve. Blocked deadline timers resolve themselves via
		// ctx.Done.
		for {
			select {
			case e := <-s.events:
				if e.kind == evSubmit {
					s.resolve(e.req, Result{Missed: true, Rejected: true})
				}
			default:
				return
			}
		}
	}

	for {
		select {
		case <-ctx.Done():
			shutdown()
			return
		case e := <-s.events:
			switch e.kind {
			case evSubmit:
				if draining {
					s.resolve(e.req, Result{Missed: true, Rejected: true})
					break
				}
				e.req.advance(stateBuffered)
				buffer = append(buffer, e.req)
				syncGauges()
			case evTaskDone:
				if e.ran {
					s.breakerRecord(e.k, !e.failed, now())
				}
				if pending[e.k] > 0 {
					pending[e.k]--
				}
				// Re-anchor the backlog estimate on the actual completion
				// time so latency jitter cannot accumulate drift: the
				// pending tasks are assumed spread evenly over the pool,
				// replica i finishing after (pending+i)/R more tasks (the
				// slot estimates sum to pending, preserving total
				// capacity; with one replica this is the scalar
				// now + pending*exec).
				R := len(busyUntil[e.k])
				anchor := now()
				for i := range busyUntil[e.k] {
					busyUntil[e.k][i] = anchor + time.Duration((pending[e.k]+i)/R)*exec[e.k]
				}
				if e.done {
					r := e.req
					delete(inflight, r)
					syncGauges()
					r.mu.Lock()
					outs, okMask, sub, nfailed, lvl := r.outs, r.ok, r.subset, r.failed, r.level
					r.mu.Unlock()
					if okMask == ensemble.Empty {
						// Every task failed permanently: nothing to
						// aggregate.
						s.resolve(r, Result{Subset: sub, Missed: true, Latency: latency(r)})
					} else {
						out := s.cfg.Ensemble.Predict(outs, okMask)
						// A request completed by a deadline cutoff is what the
						// deadline event degrades: what finished, finished in
						// time. The cutoff wakes at the deadline itself, so
						// whether it or the deadline timer reaches the
						// coordinator first must not decide the outcome.
						//schemble:wallclock lateness is judged against the wall-clock deadline set at Submit
						late := time.Now().After(r.deadline) && !(e.cutoff && s.tol.Degrade)
						if s.adapt != nil && !late && nfailed == 0 &&
							lvl == qos.LevelFull && okMask == ensemble.Full(m) {
							// Clean full-ensemble resolve: pair the raw score
							// with the observed discrepancy for the
							// recalibration reservoir (mirrors sim).
							s.adapt.ObserveOutcome(now(), r.rawScore, outs, out)
						}
						s.resolve(r, Result{
							Output: out,
							Subset: okMask,
							Missed: late,
							// Degraded: some committed tasks failed, or the
							// degradation ladder served the class a reduced
							// plan (level above full).
							Degraded: !late && (nfailed > 0 || lvl > qos.LevelFull),
							Latency:  latency(r),
						})
					}
				}
			case evDeadline:
				r := e.req
				r.mu.Lock()
				started := r.state >= stateCommitted
				committed := r.state == stateCommitted
				outs, okMask, sub := r.outs, r.ok, r.subset
				r.mu.Unlock()
				switch {
				case !started:
					// Never committed: drop from the buffer and miss.
					for i, b := range buffer {
						if b == r {
							buffer = append(buffer[:i], buffer[i+1:]...)
							break
						}
					}
					s.resolve(r, Result{Missed: true})
					syncGauges()
				case committed && s.tol.Degrade && okMask != ensemble.Empty && okMask != sub:
					// Partial-ensemble degradation: the deadline arrived
					// with some but not all subset outputs. Aggregate what
					// completed and serve it degraded instead of missing.
					// Still-running sibling tasks observe the resolved
					// state and are skipped; exactly-once holds. (Writes
					// to outs land on indices outside okMask, so the
					// aggregation below never races them.)
					out := s.cfg.Ensemble.Predict(outs, okMask)
					delete(inflight, r)
					s.resolve(r, Result{
						Output:   out,
						Subset:   okMask,
						Degraded: true,
						Latency:  latency(r),
					})
					syncGauges()
				}
			case evDrain:
				draining = true
				// Uncommitted work cannot finish under drain: resolve it
				// now. Committed work runs to completion.
				for _, r := range buffer {
					s.resolve(r, Result{Missed: true})
				}
				buffer = nil
				syncGauges()
			}
			if draining {
				if len(inflight) == 0 {
					// Last committed request resolved: complete the drain.
					s.cancelRuntime()
				}
				continue
			}
			dispatch()
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

// stageable is the coordinator's commit rule: at time t a model can take
// one more task while the work already committed to its earliest replica
// slot runs out within one task time, exec. A busy replica therefore holds
// at most one task staged in the model's queue behind the running one, and
// an idle replica can be handed two in one pass: the worker picks the
// staged task up the instant it finishes, and the planning pass that
// completion triggers runs during that task instead of in front of it
// (DESIGN.md "Online wrapper").
func stageable(slots []time.Duration, t, exec time.Duration) bool {
	_, at := earliestSlot(slots)
	return at <= t+exec
}

// resolve delivers a result exactly once; entering stateResolved is the
// only transition allowed from any stage, so late task completions,
// deadline timers and shutdown sweeps cannot double-deliver.
func (s *Server) resolve(r *request, res Result) {
	r.mu.Lock()
	if r.state == stateResolved {
		r.mu.Unlock()
		return
	}
	r.state = stateResolved
	if r.deadlineTimer != nil {
		r.deadlineTimer.Stop()
	}
	var trace *obsv.DecisionTrace
	if r.tr != nil {
		// Finalize the trace while holding the mutex that guarded its
		// commit-time fields, then hand a copy to the observer outside the
		// lock.
		t := r.tr
		//schemble:wallclock converts the resolution instant to virtual time against the Start anchor
		t.Resolved = time.Duration(float64(time.Since(s.start)) / s.scale) //schemble:guardedby-ok start is written once in Start before the coordinator launches; reads are ordered by goroutine creation
		t.Latency = t.Resolved - t.Queued
		t.Retries = int(r.obsRetries.Load())
		t.Hedges = int(r.obsHedges.Load())
		t.Timeouts = int(r.obsTimeouts.Load())
		switch {
		case res.Rejected:
			t.Outcome = obsv.OutcomeRejected
		case res.Missed:
			t.Outcome = obsv.OutcomeMissed
		case res.Degraded:
			t.Outcome = obsv.OutcomeDegraded
		default:
			t.Outcome = obsv.OutcomeServed
		}
		if !res.Missed {
			t.Served = res.Subset.Models()
		}
		c := *t
		trace = &c
	}
	r.mu.Unlock()
	if s.cache != nil && r.cacheable && !res.Missed && !res.Degraded {
		// Clean full-quality resolve of a cacheable miss: fill the entry
		// so the next query in this centroid region hits.
		//schemble:wallclock converts the resolution instant to virtual time against the Start anchor
		vnow := time.Duration(float64(time.Since(s.start)) / s.scale) //schemble:guardedby-ok start is written once in Start before the coordinator launches; reads are ordered by goroutine creation
		s.cache.Fill(vnow, r.cacheKey, rcache.Value{Output: res.Output, Subset: res.Subset})
	}
	switch {
	case res.Rejected:
		s.nRejected.Add(1)
	case res.Missed:
		s.nMissed.Add(1)
	case res.Degraded:
		s.nDegraded.Add(1)
	default:
		s.nServed.Add(1)
	}
	if r.class >= 0 && s.classStats != nil {
		cc := &s.classStats[r.class]
		switch {
		case res.Rejected:
			cc.rejected.Add(1)
		case res.Missed:
			cc.missed.Add(1)
		case res.Degraded:
			cc.degraded.Add(1)
		default:
			cc.served.Add(1)
			if res.Cached {
				cc.cached.Add(1)
			}
		}
	}
	if trace != nil {
		s.obs.Done(*trace)
	}
	r.done <- res
}
