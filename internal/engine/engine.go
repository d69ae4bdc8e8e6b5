// Package engine is the decision pipeline of the paper — discrepancy
// predictor, query buffer, scheduler, per-model task queues — written once
// and driven twice: internal/serve runs it on goroutines against the wall
// clock, internal/sim on an event heap in virtual time. A request passes
// through it in four steps:
//
//	arrive  class, class-default deadline, score (observed by the drift
//	        detector when adaptation is on), cache lookup, admission
//	plan    a pass over the query buffer: load observation (the fleet's
//	        committed work, in seconds), cost refresh, room gate, one
//	        schedule of every buffered query (its early tasks counted as
//	        paid, core.QueryInfo.Sunk), blocked-model strip, the ladder's
//	        subset cap (keeping the models that finish first, an early one
//	        at its query's latest early finish), per-query room check (of
//	        the models without an early task), and without room the part of
//	        the subset that has room and gives up at most one reward step;
//	        then, for each unblocked model with an idle replica, one early
//	        task of a query still waiting on its plan
//	commit  the query's early models join its subset when they cost no
//	        reward and fit its cap; the driver's Executor dispatches the
//	        query's tasks, all but the early ones
//	settle  aggregate, classify, fill the cache
//
// The package is pure (the enginepure and detrand analyzers hold it to
// that): no goroutines, channels, timers or randomness, and every instant
// is an argument. What a driver owns is what differs between a server and
// a simulator: when it calls Pass, and its Executor — above all what "room"
// means.
//
// Classify, Arrive and the QoS, Cache and Adapt components lock
// internally and may be called from any goroutine. The buffer, Pass,
// Settle and Delivered belong to the one goroutine that coordinates the
// driver.
package engine

import (
	"cmp"
	"math/bits"
	"slices"
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
)

// blockHorizon is how far past now a blocked model's availability is
// pushed in the scheduler's capacity view: far enough that no
// deadline-feasible plan can include it.
const blockHorizon = time.Hour

// partLoss is the reward a query may give up to commit onto a strict part of
// its subset that has room when the subset has none: one step of the DP's
// reward grid (Theorem 3: Delta = ε/N, 0.01 in every shipped deployment), the
// resolution the plan pinned the query's reward to. One step and not more:
// a larger loss trades accuracy for latency, a policy choice this rule does
// not make (DESIGN.md "Online wrapper").
const partLoss = 0.01

// Config assembles an Engine. Ensemble, Replicas and BaseExec are always
// required; Scheduler and Rewarder by any driver that calls Pass.
type Config struct {
	Ensemble  *ensemble.Ensemble
	Scheduler core.Scheduler
	Rewarder  core.Rewarder
	// Estimator predicts discrepancy scores; nil scores every query 0.5.
	Estimator discrepancy.ScoreEstimator
	// Replicas[k] is model k's pool size; BaseExec[k] its frozen planning
	// cost, PlanningCost's in both drivers. Batch amortization is the
	// simulator's alone and stays in its own backlog.
	Replicas []int
	BaseExec []time.Duration
	// Classes, Admission, Cache and Adapt are the drivers' Config fields of
	// the same names, passed through; Admission.Capacity defaults to
	// BottleneckCapacity.
	Classes   []qos.Class
	Admission qos.Tuning
	Cache     rcache.Config
	Adapt     adapt.Config
}

// Query is the engine's view of one request. A driver embeds it in its own
// request type, which makes that type an Item.
type Query struct {
	// ID numbers the query when it enters the buffer: the scheduler's
	// QueryInfo.ID, stable for as long as the query waits.
	ID                int
	Arrival, Deadline time.Duration
	// Score is the predictor's difficulty score: what the cache is gated
	// and the scheduler plans with.
	Score float64
	// Class is the class index, -1 without classes.
	Class int
	// Cacheable marks a query whose lookup missed; CacheKey is the entry a
	// clean result fills.
	Cacheable bool
	CacheKey  int
	// Level and Subset are what the query was committed at and onto. The
	// engine never writes them: the driver's Commit does, on the goroutine
	// that owns the buffer.
	Level  qos.Level
	Subset ensemble.Subset
	// Planned is what the scheduler last chose for the query, before the
	// blocked models were stripped and the ladder's cap applied: the pass
	// writes it, and a Commit may read it for the driver's trace.
	Planned ensemble.Subset
	// Early is the models a task of the query was dispatched to while it
	// waited, ahead of its commit: the pass sets a model when the driver's
	// Early took the task, and the driver clears it when that task fails
	// before the commit, leaving the model to the commit. The scheduler plans
	// Early's unblocked models as the query's sunk tasks.
	Early ensemble.Subset
	// due[k] is when model k's early task was booked to finish: the pass sets
	// it with k's bit of Early, and it is read only while that bit is set.
	due [ensemble.MaxModels]time.Duration
}

// earlyBy is when the last of q's early tasks outside blocked was booked to
// finish, 0 when there is none.
func (q *Query) earlyBy(blocked ensemble.Subset) (by time.Duration) {
	for s := q.Early &^ blocked; s != ensemble.Empty; s &= s - 1 {
		by = max(by, q.due[bits.TrailingZeros16(uint16(s))])
	}
	return by
}

// Q returns q; a type that embeds Query is an Item through it.
func (q *Query) Q() *Query { return q }

// Item is a driver's request type seen from the buffer.
type Item interface{ Q() *Query }

// Executor is the fleet a pass commits onto, as the driver sees it at now.
// Its capacity view is the one picture of the fleet every decision of a pass
// reads: the load the controller is fed, the plan, and which models a capped
// subset keeps.
type Executor interface {
	// Blocked is the set of models no plan may use.
	Blocked(now time.Duration) ensemble.Subset
	// Capacity is when each replica drains the work committed to it. It is
	// read afresh for the load observation, for every plan of a pass, for
	// every subset the ladder caps and once for the early tasks, so it may
	// alias live state; a Commit or an Early must show in the next read.
	Capacity() core.Capacity
	// Room reports whether the fleet can take a query committed onto sub,
	// by the driver's own rule: every model of sub, or some. A pass asks it
	// of each unblocked model alone, then of the models of each query's
	// committed subset that have no early task, and when those have none, of
	// the same models of the parts of it within one reward step.
	Room(now time.Duration, sub ensemble.Subset) bool
	// Commit takes the query out of the buffer for good: the driver
	// dispatches one task per model of sub that has no early task (an early
	// output from a model outside sub does not count), or resolves the query
	// some other way (its queue is full, it is already gone).
	Commit(now time.Duration, it Item, sub ensemble.Subset, lvl qos.Level)
	// Early dispatches model k's task of a query that stays in the buffer,
	// ahead of its commit, and reports whether it did. A pass asks it after
	// its commits, once for each unblocked model whose earliest replica slot
	// is at or before now.
	Early(now time.Duration, it Item, k int) bool
}

// Engine is one pipeline instance.
type Engine struct {
	cfg Config
	m   int

	// QoS is the overload controller, never nil: without classes it only
	// estimates load. Cache and Adapt are nil when their config is off.
	QoS   *qos.Controller
	Cache *rcache.Cache
	Adapt *adapt.Engine

	exec []time.Duration

	buffer []Item
	nextID int

	// Per-pass scratch, reused so a pass allocates only what a commit needs.
	order  []int
	left   []bool
	infos  []core.QueryInfo
	avail  core.Capacity
	pushed [][]time.Duration
	// work[k] is model k's committed work as the pass's observation read it,
	// finish[k] when model k would finish one more task.
	work, finish []time.Duration

	partCommits uint64
}

// BottleneckCapacity estimates the full-ensemble service rate a fleet
// sustains, in requests per second: the slowest pool's throughput, min
// over k of replicas[k] / meanLatency[k]. nil replicas means one each.
func BottleneckCapacity(models []model.Model, replicas []int) float64 {
	capacity := 0.0
	for k, md := range models {
		lat := md.MeanLatency().Seconds()
		if lat <= 0 {
			continue
		}
		c := 1 / lat
		if replicas != nil {
			c = float64(replicas[k]) / lat
		}
		if capacity <= 0 || c < capacity {
			capacity = c
		}
	}
	if capacity <= 0 {
		capacity = 1
	}
	return capacity
}

// planMargin is the headroom a frozen planning cost adds to a model's mean
// latency, so latency jitter does not turn feasible-looking plans into
// deadline misses.
const planMargin = 0.1

// PlanningCost is the frozen planning cost vector of models, a driver's
// Config.BaseExec: each model's mean latency with planMargin headroom.
// With adaptation on, every pass rescales it by the live inflation factor.
func PlanningCost(models []model.Model) []time.Duration {
	exec := make([]time.Duration, len(models))
	for k, md := range models {
		exec[k] = time.Duration(float64(md.MeanLatency()) * (1 + planMargin))
	}
	return exec
}

// New builds the pipeline's shared components from cfg.
func New(cfg Config) *Engine {
	m := cfg.Ensemble.M()
	if cfg.Admission.Capacity <= 0 {
		cfg.Admission.Capacity = BottleneckCapacity(cfg.Ensemble.Models, cfg.Replicas)
	}
	profiled := make([]time.Duration, m)
	for k, md := range cfg.Ensemble.Models {
		profiled[k] = md.MeanLatency()
	}
	return &Engine{
		cfg:    cfg,
		m:      m,
		QoS:    qos.New(qos.Config{Classes: cfg.Classes, Tuning: cfg.Admission}),
		Cache:  rcache.New(cfg.Cache),
		Adapt:  adapt.New(cfg.Adapt, profiled, cfg.BaseExec),
		exec:   append([]time.Duration(nil), cfg.BaseExec...),
		avail:  make(core.Capacity, m),
		pushed: make([][]time.Duration, m),
		work:   make([]time.Duration, m),
		finish: make([]time.Duration, m),
	}
}

// Exec is the working planning-cost vector, read-only to the driver: every
// Pass refreshes it from the live latency profile when adaptation is on,
// and it is BaseExec otherwise.
func (e *Engine) Exec() []time.Duration { return e.exec }

// PartCommits counts the queries committed onto a strict part of their capped
// plan for lack of room, since the engine was built; read it between passes.
func (e *Engine) PartCommits() uint64 { return e.partCommits }

// Work is each model's committed work as the last pass fed it to the
// controller — the mean over the model's replicas of the time each still
// needs to drain — read-only to the driver. The controller's load is built
// on the largest of them.
func (e *Engine) Work() []time.Duration { return e.work }

// Classify resolves a class name to its index (-1 without classes; unknown
// and empty names are the lowest-priority class) and a request's relative
// deadline, which a non-positive budget leaves to the class.
func (e *Engine) Classify(class string, budget time.Duration) (int, time.Duration) {
	ci := e.QoS.ClassIndex(class)
	if ci >= 0 && budget <= 0 {
		budget = e.QoS.Class(ci).Deadline
	}
	return ci, budget
}

// Verdict is what Arrive decided.
type Verdict uint8

const (
	// Admitted: the query needs model capacity and may enter the buffer.
	Admitted Verdict = iota
	// Hit: the cache answered; Arrival.Value is the result.
	Hit
	// Shed: admission control refused the query.
	Shed
)

// Arrival is the outcome of the pre-buffer path.
type Arrival struct {
	Verdict Verdict
	// Cache is the lookup's obsv.CacheOutcome* label, empty without a cache.
	Cache string
	Value rcache.Value
}

// Arrive runs the pre-buffer path for a query whose Class, Arrival and
// Deadline are set: score it, offer it to the cache, and only then to
// admission — so every arrival is scored and observed once, shed or not,
// and a query the cache can answer is never shed and spends no token.
func (e *Engine) Arrive(q *Query, s *dataset.Sample) Arrival {
	q.Score = 0.5
	if e.cfg.Estimator != nil {
		q.Score = e.cfg.Estimator.Predict(s)
	}
	if e.Adapt != nil {
		e.Adapt.ObserveScore(q.Arrival, q.Score)
	}
	var a Arrival
	if e.Cache != nil {
		var key int
		a.Value, key, a.Cache = e.Cache.Lookup(q.Arrival, s.Features, q.Score)
		// Exhaustive over the cache taxonomy (the exhaustiveoutcome analyzer
		// enforces it): a new outcome must decide what it means here.
		switch a.Cache {
		case obsv.CacheOutcomeHit:
			a.Verdict = Hit
			return a
		case obsv.CacheOutcomeMiss:
			q.Cacheable, q.CacheKey = true, key
		case obsv.CacheOutcomeBypass:
			// Too hard, or unkeyable: the ensemble always runs.
		}
	}
	if q.Class >= 0 && !e.QoS.Admit(q.Arrival, q.Class) {
		a.Verdict = Shed
	}
	return a
}

// Buffer appends an admitted query to the buffer and numbers it.
func (e *Engine) Buffer(it Item) {
	it.Q().ID = e.nextID
	e.nextID++
	e.buffer = append(e.buffer, it)
}

// Buffered is the number of queries waiting for a plan.
func (e *Engine) Buffered() int { return len(e.buffer) }

// Filter drops the buffered queries keep rejects (one whose deadline
// passed, or that the driver resolved some other way) and keeps the rest
// in order.
func (e *Engine) Filter(keep func(Item) bool) {
	kept := e.buffer[:0]
	for _, it := range e.buffer {
		if keep(it) {
			kept = append(kept, it)
		}
	}
	e.buffer = kept
}

// Pass plans the buffer at now and commits what the plan placed and x has
// room for; it returns how many queries left the buffer. A query whose plan
// is empty, or whose subset x has no room for and no part of which within
// one reward step has any, waits for the next pass, and may meanwhile get an
// early task on an idle model of its plan.
func (e *Engine) Pass(now time.Duration, x Executor) int {
	// The load estimate drives admission and the ladder, never the plan.
	e.QoS.Observe(now, e.committedWork(now, x))
	if e.Adapt != nil {
		// One cost view for the whole pass.
		e.Adapt.ExecInto(e.exec)
	}
	if len(e.buffer) == 0 {
		return 0
	}
	blocked := x.Blocked(now)
	// A commit needs a model with room and a pass only makes models busier,
	// so when no unblocked model has room nothing can commit whatever the
	// plan. Skip the planning.
	if !e.room(now, x, ensemble.Full(e.m)&^blocked) {
		return 0
	}
	e.plan(now, x, blocked)
	if slices.Contains(e.left, false) {
		e.early(now, x, blocked)
	}
	planned := len(e.buffer)
	kept := e.buffer[:0]
	for i, it := range e.buffer {
		if !e.left[i] {
			kept = append(kept, it)
		}
	}
	e.buffer = kept
	return planned - len(kept)
}

// committedWork is the backlog the controller is fed, in seconds of service:
// the committed work of the most loaded model (a pool's work is the mean over
// its replicas of what each has left at now), plus what the buffered queries
// — no subset chosen for them yet — take at the admission capacity. It reads
// x's own view, so a blocked model counts what it holds, not blockHorizon.
func (e *Engine) committedWork(now time.Duration, x Executor) time.Duration {
	var deepest time.Duration
	for k, slots := range x.Capacity() {
		var sum time.Duration
		for _, until := range slots {
			sum += max(0, until-now)
		}
		e.work[k] = sum / time.Duration(len(slots))
		deepest = max(deepest, e.work[k])
	}
	buffered := float64(len(e.buffer)) / e.cfg.Admission.Capacity
	return deepest + time.Duration(buffered*float64(time.Second))
}

// finishTimes is when each model would finish q's task committed at now, on
// the replica that frees up first, or, for a model with q's early task, by,
// when the last of q's unblocked early tasks was booked to finish (the
// scheduler's SunkBy): what a capped subset is ranked by.
func (e *Engine) finishTimes(now time.Duration, x Executor, q *Query, by time.Duration) []time.Duration {
	for k, slots := range x.Capacity() {
		e.finish[k] = max(now, slices.Min(slots)) + e.exec[k]
		if q.Early.Contains(k) {
			e.finish[k] = by
		}
	}
	return e.finish
}

// room reports whether some model of set has room on its own.
func (e *Engine) room(now time.Duration, x Executor, set ensemble.Subset) bool {
	for k := 0; k < e.m; k++ {
		if set.Contains(k) && x.Room(now, ensemble.Single(k)) {
			return true
		}
	}
	return false
}

// plan schedules the whole buffer, every class in the one call of the
// configured scheduler, and commits every query the plan placed on a subset
// with room, earliest deadline first with ties to the lower ID: the sequence
// the scheduler judged each subset feasible along (Alg. 1), so what runs is
// what the plan proved on time. A class's level on the ladder only cuts what
// its query commits onto. It marks in left the buffer positions that
// committed.
func (e *Engine) plan(now time.Duration, x Executor, blocked ensemble.Subset) {
	e.infos, e.order, e.left = e.infos[:0], e.order[:0], e.left[:0]
	for i, it := range e.buffer {
		q := it.Q()
		e.infos = append(e.infos, core.QueryInfo{
			ID: q.ID, Arrival: q.Arrival, Deadline: q.Deadline, Score: q.Score,
			Sunk: q.Early &^ blocked, SunkBy: q.earlyBy(blocked),
		})
		e.order, e.left = append(e.order, i), append(e.left, false)
	}
	plan := e.cfg.Scheduler.Schedule(now, e.infos, e.capacity(now, x, blocked), e.exec, e.cfg.Rewarder)
	slices.SortFunc(e.order, func(a, b int) int {
		qa, qb := e.buffer[a].Q(), e.buffer[b].Q()
		return cmp.Or(cmp.Compare(qa.Deadline, qb.Deadline), cmp.Compare(qa.ID, qb.ID))
	})
	for _, bi := range e.order {
		it := e.buffer[bi]
		// A blocked model is stripped even if the scheduler chose it.
		q := it.Q()
		q.Planned = plan.Subset(q.ID)
		sub := q.Planned &^ blocked
		if sub == ensemble.Empty {
			continue
		}
		lvl := e.level(q.Class)
		limit := qos.SubsetCap(lvl, e.m)
		if sub.Size() > limit {
			// The ladder caps the subset to the class's level, keeping the
			// models that would finish this query's task first. The view is
			// read per commit: the commits before this one show in it, so
			// capped traffic spreads over equals instead of queueing on one.
			sub = qos.TruncateSubset(sub, limit, e.finishTimes(now, x, q, e.infos[bi].SunkBy))
		}
		// Room is asked about what would run, not what was planned: the
		// driver decides whether it needs every model of it or some. Without
		// it, a part within one reward step of sub that has room will do.
		if !e.roomFor(now, x, q, sub) {
			if sub = e.part(now, x, q, sub); sub == ensemble.Empty {
				continue
			}
			e.partCommits++
		}
		// An early model the plan left out joins the commit when that costs
		// no reward and fits the cap: its task runs anyway and needs no room.
		if with := sub | q.Early&^blocked; with != sub && with.Size() <= limit &&
			e.cfg.Rewarder.Reward(q.Score, with) >= e.cfg.Rewarder.Reward(q.Score, sub) {
			sub = with
		}
		x.Commit(now, it, sub, lvl)
		e.left[bi] = true
	}
}

// roomFor reports whether x has room for q's commit onto sub: for the models
// of sub that have no early task, the only ones the commit dispatches.
func (e *Engine) roomFor(now time.Duration, x Executor, q *Query, sub ensemble.Subset) bool {
	rest := sub &^ q.Early
	return rest == ensemble.Empty || x.Room(now, rest)
}

// part is the non-empty strict part of sub that q commits onto when x has no
// room for sub: of the parts whose reward is within partLoss of sub's and
// that x has room for, the highest reward, ties to fewer models and then to
// the lower mask; Empty when none qualifies. Room is asked only of a part
// that passes on reward and would beat the best so far.
func (e *Engine) part(now time.Duration, x Executor, q *Query, sub ensemble.Subset) ensemble.Subset {
	floor := e.cfg.Rewarder.Reward(q.Score, sub) - partLoss
	best, bestR := ensemble.Empty, 0.0
	for t := (sub - 1) & sub; t != ensemble.Empty; t = (t - 1) & sub {
		r := e.cfg.Rewarder.Reward(q.Score, t)
		if r < floor {
			continue
		}
		if best != ensemble.Empty {
			if c := cmp.Or(cmp.Compare(bestR, r), cmp.Compare(t.Size(), best.Size()), cmp.Compare(t, best)); c >= 0 {
				continue
			}
		}
		if e.roomFor(now, x, q, t) {
			best, bestR = t, r
		}
	}
	return best
}

// early gives each unblocked model with an idle replica, one whose earliest
// slot is at or before now, one task of a query the pass left in the buffer:
// the first in commit order whose plan, blocked models stripped, holds the
// model, that has no early task there yet and that the model can still
// finish by its deadline. The plan does not change, only when its idle
// member runs: the commit that follows dispatches the rest, and the plans
// until then count the task as the query's own, already paid. A busy or
// staged replica gets none, and a model x refuses gets none this pass.
func (e *Engine) early(now time.Duration, x Executor, blocked ensemble.Subset) {
	for k, slots := range x.Capacity() {
		if blocked.Contains(k) || slices.Min(slots) > now {
			continue
		}
		for _, bi := range e.order {
			q := e.buffer[bi].Q()
			if e.left[bi] || !(q.Planned &^ blocked).Contains(k) || q.Early.Contains(k) || now+e.exec[k] > q.Deadline {
				continue
			}
			if x.Early(now, e.buffer[bi], k) {
				q.Early, q.due[k] = q.Early.With(k), now+e.exec[k]
			}
			break
		}
	}
}

// level is what a query of class ci commits at: its class's rung on the
// ladder, full service without classes. A class that climbed to shed after
// its query was admitted commits capped: admission is not retroactive.
func (e *Engine) level(ci int) qos.Level {
	if len(e.cfg.Classes) == 0 {
		return qos.LevelFull
	}
	return min(e.QoS.Level(ci), qos.LevelCapped)
}

// capacity is x's view with every blocked model pushed out of reach.
func (e *Engine) capacity(now time.Duration, x Executor, blocked ensemble.Subset) core.Capacity {
	view := x.Capacity()
	if blocked == ensemble.Empty {
		return view
	}
	for k := range e.avail {
		e.avail[k] = view[k]
		if blocked.Contains(k) {
			e.pushed[k] = e.pushed[k][:0]
			for range view[k] {
				e.pushed[k] = append(e.pushed[k], now+blockHorizon)
			}
			e.avail[k] = e.pushed[k]
		}
	}
	return e.avail
}

// Settlement is a committed query's aggregated result.
type Settlement struct {
	Output model.Output
	// Degraded: in time, but from fewer models than planned at full
	// service — tasks failed, or the ladder capped the plan.
	Degraded bool
	fill     bool
}

// Settle aggregates the outputs of ok, the non-empty set of q's models that
// produced one; failed counts those that did not, and late says the result
// missed the deadline.
func (e *Engine) Settle(q *Query, outs []model.Output, ok ensemble.Subset, failed int, late bool) Settlement {
	s := Settlement{Output: e.cfg.Ensemble.Predict(outs, ok)}
	s.Degraded = !late && (failed > 0 || q.Level > qos.LevelFull)
	s.fill = !late && !s.Degraded && q.Cacheable && e.Cache != nil
	return s
}

// Delivered tells the engine that s was the result q's caller got. If it
// was in time and at full quality it fills the cache entry q's lookup
// missed, so the next easy query of the region hits; a degraded or late
// result, or one that lost the race to resolve q, fills nothing.
func (e *Engine) Delivered(now time.Duration, q *Query, s Settlement) {
	if s.fill {
		e.Cache.Fill(now, q.CacheKey, rcache.Value{Output: s.Output, Subset: q.Subset})
	}
}
