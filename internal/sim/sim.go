// Package sim is the discrete-event serving simulator: virtual clock, one
// serial task queue per deployed model instance, a central query buffer for
// the Schemble family, deadline tracking, and per-query outcome records.
//
// Two selection modes cover every baseline in the paper:
//
//   - immediate mode (Original, Static, DES, Gating): a Select function
//     picks the model subset the moment a query arrives; tasks are enqueued
//     to the chosen servers' FIFO queues right away. With rejection enabled
//     the query is rejected up front when its estimated completion exceeds
//     its deadline.
//
//   - buffered mode (Schemble, Schemble(ea), Schemble(t), scheduler
//     ablations): arriving queries wait in the query buffer; a core.Scheduler
//     re-plans whenever a query becomes ready or a model goes idle, and
//     tasks are dispatched to idle models per plan in EDF order. The
//     discrepancy predictor's latency and the scheduler's own compute cost
//     are charged in virtual time. The arrival path, the planning pass and
//     the settlement are internal/engine's, the pipeline the serving
//     runtime drives too; the simulator is its event heap, its virtual
//     servers and the paper's wrapper around them.
//
// The simulator is the paper's: it produces every table and figure of
// `schemble exp`. Request classes, the result cache and online adaptation
// are the serving runtime's own, and the soaks that measure them replay
// their traces on that runtime in virtual time (serve.Replay).
//
// Determinism: all latency jitter comes from a seeded rng.Source and the
// event heap breaks time ties by sequence number, so a (Config, Trace) pair
// always produces identical records.
package sim

import (
	"container/heap"
	"time"

	"schemble/internal/core"
	"schemble/internal/dataset"
	"schemble/internal/discrepancy"
	"schemble/internal/engine"
	"schemble/internal/ensemble"
	"schemble/internal/metrics"
	"schemble/internal/model"
	"schemble/internal/qos"
	"schemble/internal/rng"
	"schemble/internal/trace"
)

// Config configures one simulation run.
type Config struct {
	// Ensemble supplies the model types and the aggregator.
	Ensemble *ensemble.Ensemble
	// Replicas[j] is how many server instances of model type j are
	// deployed; nil means one each (the standard deployment). The static
	// baseline uses replicas to harness memory freed by dropped models;
	// buffered mode exposes every replica's backlog to the scheduler as a
	// core.Capacity and enqueues each committed task on the
	// least-backlogged replica of its type.
	Replicas []int
	// Refs[sampleID] is the full ensemble's output per sample — the
	// ground-truth reference.
	Refs []model.Output
	// Scorer measures agreement of served outputs against Refs.
	Scorer *ensemble.Scorer

	// Select enables immediate mode: it maps an arriving sample to the
	// model-type subset to execute. Exactly one of Select / Scheduler must
	// be set.
	Select func(s *dataset.Sample) ensemble.Subset

	// Scheduler + Rewarder + Estimator enable buffered mode.
	Scheduler core.Scheduler
	Rewarder  core.Rewarder
	Estimator discrepancy.ScoreEstimator
	// ScoreDelay is the predictor's inference latency: a buffered query
	// becomes schedulable only ScoreDelay after arrival.
	ScoreDelay time.Duration
	// SchedOverhead maps the buffer length at a planning event to the
	// scheduler's own compute time, charged before dispatch (Exp-4/Exp-8:
	// small delta makes planning itself slow). nil means free.
	SchedOverhead func(buffered int) time.Duration

	// ForceProcess disables rejection (Exp-2): immediate mode enqueues
	// unconditionally; buffered queries that the scheduler keeps skipping
	// fall back to the fastest single model once their deadline passes,
	// and late completions are not counted as misses.
	ForceProcess bool

	// FastFirst enables the paper's Exp-5 optimization: when an admitted
	// query meets an empty buffer and an idle fastest model, it waits for
	// neither the predictor nor the scheduler and runs on the fastest
	// model immediately — eliminating the extra waiting time at the cost
	// of single-model accuracy on those queries.
	FastFirst bool

	// BatchSize lets each model execute up to this many queued tasks as
	// one batch (1 or 0 disables). Batch latency follows model.BatchLatency:
	// base * (1 + (n-1)*model.BatchMarginal) — throughput rises, per-item
	// latency rises with it — the classic serving alternative to
	// per-query scheduling that the abl-batch study contrasts with
	// Schemble under deadlines.
	BatchSize int

	Seed uint64
}

// event kinds.
type evKind int

const (
	evArrival evKind = iota
	evReady
	evTaskDone
	evDeadline
	evPlan
)

type event struct {
	at   time.Duration
	seq  int
	kind evKind
	// payload
	arrIdx int
	q      *query
	server int
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

type query struct {
	// Query is the decision engine's view of the query.
	engine.Query
	// idx is the query's arrival index in the trace, and its record's.
	idx    int
	sample *dataset.Sample

	committed bool
	remaining int
	outs      []model.Output
	finished  bool
}

type task struct {
	q       *query
	typeIdx int
}

type server struct {
	typeIdx int
	// busyUntil is when the in-flight task (if any) finishes.
	busyUntil time.Duration
	running   bool
	queue     []*task
	// backlogEnd estimates when everything currently queued finishes
	// (mean latencies); used for admission estimates and as the
	// scheduler's availability signal.
	backlogEnd time.Duration
}

// sim is one run's mutable state.
type sim struct {
	cfg     Config
	samples []*dataset.Sample
	events  eventHeap
	seq     int
	now     time.Duration

	servers []*server
	// byType[j] lists server indices of model type j.
	byType [][]int
	// eng is the decision pipeline; exec is its planning-cost vector (mean
	// exec per model type, with the estimate margin) and avail the capacity
	// view its passes plan against, refilled from the servers' backlogs on
	// every read.
	eng   *engine.Engine
	exec  []time.Duration
	avail core.Capacity

	planPending bool

	src     *rng.Source
	records []metrics.Record
	tr      *trace.Trace
}

// Run simulates the trace against the configured pipeline and returns one
// record per arrival, ordered by query ID (= trace order).
func Run(cfg Config, tr *trace.Trace, samples []*dataset.Sample) []metrics.Record {
	s := newSim(cfg, tr, samples)
	for s.step() {
	}
	return s.records
}

// newSim validates cfg and builds a run's state with every arrival of the
// trace on the event heap.
func newSim(cfg Config, tr *trace.Trace, samples []*dataset.Sample) *sim {
	if (cfg.Select == nil) == (cfg.Scheduler == nil) {
		panic("sim: exactly one of Select / Scheduler must be set")
	}
	if cfg.Scheduler != nil && cfg.Rewarder == nil {
		panic("sim: buffered mode needs a Rewarder")
	}
	s := &sim{
		cfg:     cfg,
		samples: samples,
		src:     rng.New(cfg.Seed ^ 0x51ba),
		tr:      tr,
		records: make([]metrics.Record, tr.N()),
	}
	m := cfg.Ensemble.M()
	replicas := cfg.Replicas
	if replicas == nil {
		replicas = make([]int, m)
		for j := range replicas {
			replicas[j] = 1
		}
	}
	s.byType = make([][]int, m)
	s.avail = make(core.Capacity, m)
	for j := 0; j < m; j++ {
		for r := 0; r < replicas[j]; r++ {
			s.byType[j] = append(s.byType[j], len(s.servers))
			s.servers = append(s.servers, &server{typeIdx: j})
		}
		s.avail[j] = make([]time.Duration, replicas[j])
	}
	s.eng = engine.New(engine.Config{
		Ensemble: cfg.Ensemble, Scheduler: cfg.Scheduler, Rewarder: cfg.Rewarder,
		Estimator: cfg.Estimator, Replicas: replicas, BaseExec: engine.PlanningCost(cfg.Ensemble.Models),
	})
	s.exec = s.eng.Exec()
	for i := range tr.Arrivals {
		s.push(&event{at: tr.Arrivals[i].At, kind: evArrival, arrIdx: i})
	}
	return s
}

// step advances the clock to the earliest pending event and handles it;
// false means the run is over.
func (s *sim) step() bool {
	if len(s.events) == 0 {
		return false
	}
	e := heap.Pop(&s.events).(*event)
	s.now = e.at
	s.handle(e)
	return true
}

func (s *sim) push(e *event) {
	e.seq = s.seq
	s.seq++
	heap.Push(&s.events, e)
}

func (s *sim) handle(e *event) {
	switch e.kind {
	case evArrival:
		s.onArrival(e.arrIdx)
	case evReady:
		// Guard against double commitment: when a query's deadline falls
		// before arrival+ScoreDelay, onDeadline has already handled it
		// (ForceProcess commits it to the fastest model); re-buffering it
		// here would let the scheduler commit it a second time,
		// re-enqueueing tasks and resetting remaining/outs. A query whose
		// deadline already passed without ForceProcess can only miss, so
		// it never enters the buffer either.
		if e.q.committed || e.q.finished {
			break
		}
		if !s.cfg.ForceProcess && e.q.Deadline <= s.now {
			break
		}
		s.eng.Buffer(e.q)
		s.schedulePlan()
	case evTaskDone:
		s.finishTask(e.q)
		s.onTaskDone(e.server)
	case evDeadline:
		s.onDeadline(e.q)
	case evPlan:
		s.planPending = false
		if s.eng.Pass(s.now, s) > 0 {
			// Committing may have left other planned queries adjacent to
			// idle servers; re-plan cheaply at the same instant.
			s.schedulePlan()
		}
	}
}

// onArrival admits a new query in the appropriate mode.
func (s *sim) onArrival(arrIdx int) {
	a := s.tr.Arrivals[arrIdx]
	q := &query{
		// Classless: the engine's class index for no class is -1.
		Query:  engine.Query{Arrival: a.At, Deadline: a.Deadline, Class: -1},
		idx:    arrIdx,
		sample: s.samples[a.SampleIdx],
	}
	s.records[q.idx] = metrics.Record{
		QueryID:  q.idx,
		SampleID: q.sample.ID,
		CameraID: q.sample.CameraID,
		Arrival:  q.Arrival,
		Deadline: q.Deadline,
		Missed:   true, // flipped on successful completion
	}
	if s.cfg.Select != nil {
		s.immediateAdmit(q)
		return
	}
	// Buffered mode: the engine scores the query; with no classes and no
	// cache, its arrival path admits every query.
	s.eng.Arrive(&q.Query, q.sample)
	// Fast path (Exp-5): empty buffer + an idle replica of the fastest
	// model -> skip the predictor's delay and the scheduler, dispatch now.
	if s.cfg.FastFirst && s.eng.Buffered() == 0 {
		if fastest := s.fastest(); s.anyIdle(ensemble.Single(fastest)) {
			s.commit(q, ensemble.Single(fastest))
			return
		}
	}
	// The query becomes schedulable once the discrepancy predictor has
	// scored it.
	s.push(&event{at: s.now + s.cfg.ScoreDelay, kind: evReady, q: q})
	s.push(&event{at: q.Deadline, kind: evDeadline, q: q})
}

// fastest is the model with the lowest planning cost, ties to the lowest
// index.
func (s *sim) fastest() int {
	fastest := 0
	for j := 1; j < len(s.exec); j++ {
		if s.exec[j] < s.exec[fastest] {
			fastest = j
		}
	}
	return fastest
}

// immediateAdmit implements the arrival path of the immediate-selection
// baselines.
func (s *sim) immediateAdmit(q *query) {
	sub := s.cfg.Select(q.sample)
	if sub == ensemble.Empty {
		return // policy rejected outright; record stays missed
	}
	// Choose the least-backlogged replica per selected type and estimate
	// completion.
	chosen := make([]int, 0, sub.Size())
	var est time.Duration
	for _, j := range sub.Models() {
		best := s.leastBacklogged(j)
		sv := s.servers[best]
		start := sv.backlogEnd
		if start < s.now {
			start = s.now
		}
		finish := start + s.exec[j]
		if finish > est {
			est = finish
		}
		chosen = append(chosen, best)
	}
	if !s.cfg.ForceProcess && est > q.Deadline {
		return // rejected: estimated completion exceeds the deadline
	}
	q.committed = true
	q.Subset = sub
	q.remaining = len(chosen)
	q.outs = make([]model.Output, s.cfg.Ensemble.M())
	for _, si := range chosen {
		s.enqueue(si, &task{q: q, typeIdx: s.servers[si].typeIdx})
	}
}

// enqueue appends a task to a server's FIFO queue and starts it if idle.
// With batching enabled the backlog estimate uses the amortized per-item
// cost, so admission does not over-reject.
func (s *sim) enqueue(si int, t *task) {
	sv := s.servers[si]
	start := sv.backlogEnd
	if start < s.now {
		start = s.now
	}
	cost := s.exec[sv.typeIdx]
	if b := s.cfg.BatchSize; b > 1 {
		cost = model.BatchAmortized(cost, b)
	}
	sv.backlogEnd = start + cost
	sv.queue = append(sv.queue, t)
	s.maybeStart(si)
}

// maybeStart begins the next queued task (or batch) when the server is
// idle.
func (s *sim) maybeStart(si int) {
	sv := s.servers[si]
	if sv.running || len(sv.queue) == 0 {
		return
	}
	n := 1
	if s.cfg.BatchSize > 1 {
		n = s.cfg.BatchSize
		if n > len(sv.queue) {
			n = len(sv.queue)
		}
	}
	batch := sv.queue[:n]
	sv.queue = sv.queue[n:]
	dur := model.BatchLatency(s.cfg.Ensemble.Models[sv.typeIdx].SampleLatency(s.src), n)
	sv.running = true
	sv.busyUntil = s.now + dur
	for _, t := range batch {
		// The model's output is materialized when the batch completes.
		t.q.outs[sv.typeIdx] = s.cfg.Ensemble.Models[sv.typeIdx].Predict(t.q.sample)
		s.push(&event{at: sv.busyUntil, kind: evTaskDone, server: si, q: t.q})
	}
}

// onTaskDone advances the server's queue after its in-flight task finished.
func (s *sim) onTaskDone(si int) {
	sv := s.servers[si]
	sv.running = false
	// Re-anchor the backlog estimate on the actual completion time so
	// latency jitter cannot accumulate drift.
	sv.backlogEnd = s.now + time.Duration(len(sv.queue))*s.exec[sv.typeIdx]
	s.maybeStart(si)
	if s.cfg.Scheduler != nil {
		s.schedulePlan()
	}
}

// finishTask is invoked from handle for evTaskDone before queue advance.
func (s *sim) finishTask(q *query) {
	q.remaining--
	if q.remaining > 0 || q.finished {
		return
	}
	q.finished = true
	rec := &s.records[q.idx]
	rec.Done = s.now
	rec.Subset = q.Subset
	late := s.now > q.Deadline
	if late && !s.cfg.ForceProcess {
		// Completed after the deadline: counts as a miss.
		return
	}
	// Every task of a simulated query succeeds; under ForceProcess a late
	// result still counts as served.
	st := s.eng.Settle(&q.Query, q.outs, q.Subset, 0, late)
	rec.Missed = false
	rec.Agreement = s.cfg.Scorer.Score(st.Output, s.cfg.Refs[q.sample.ID])
}

// schedulePlan coalesces planning requests: at most one pending evPlan,
// and none while the buffer is empty.
func (s *sim) schedulePlan() {
	if s.planPending || s.eng.Buffered() == 0 {
		return
	}
	var overhead time.Duration
	if s.cfg.SchedOverhead != nil {
		overhead = s.cfg.SchedOverhead(s.eng.Buffered())
	}
	s.planPending = true
	s.push(&event{at: s.now + overhead, kind: evPlan})
}

// Blocked implements engine.Executor: simulated models never fail.
func (s *sim) Blocked(time.Duration) ensemble.Subset { return ensemble.Empty }

// Capacity implements engine.Executor: every replica's backlog end.
func (s *sim) Capacity() core.Capacity {
	for j, slots := range s.avail {
		for i, si := range s.byType[j] {
			slots[i] = s.servers[si].backlogEnd
		}
	}
	return s.avail
}

// Room implements engine.Executor with the paper's wrapper: a query commits
// once some model of sub has an idle replica. serve asks every model of sub;
// the simulator keeps the rule the paper's tables were produced under. Under
// it no part of a subset without room has room, so the engine's fallback to
// a part never fires here.
func (s *sim) Room(_ time.Duration, sub ensemble.Subset) bool { return s.anyIdle(sub) }

// Early implements engine.Executor: the simulator runs no task ahead of its
// query's commit. Under its Room a query planned onto an idle model commits
// in the pass's commit loop; the early step reaches a model only while its
// backlog estimate has run out and its task, drawn longer than the estimate,
// still runs. It refuses that, so the paper's tables stay the wrapper's.
func (*sim) Early(time.Duration, engine.Item, int) bool { return false }

// Commit implements engine.Executor.
func (s *sim) Commit(_ time.Duration, it engine.Item, sub ensemble.Subset, lvl qos.Level) {
	q := it.(*query)
	q.Level = lvl
	s.commit(q, sub)
}

// commit locks a buffered query onto a subset and enqueues its tasks.
// Committing is idempotent-by-refusal: a second commit would re-enqueue
// tasks and reset remaining/outs, so it is rejected outright.
func (s *sim) commit(q *query, sub ensemble.Subset) {
	if q.committed {
		return
	}
	q.committed = true
	q.Subset = sub
	q.remaining = sub.Size()
	q.outs = make([]model.Output, s.cfg.Ensemble.M())
	for _, j := range sub.Models() {
		s.enqueue(s.leastBacklogged(j), &task{q: q, typeIdx: j})
	}
}

// leastBacklogged returns the replica of model type j whose backlog ends
// earliest, ties broken by deployment order (the replica-pool analogue of
// "the model's queue").
func (s *sim) leastBacklogged(j int) int {
	best := -1
	for _, si := range s.byType[j] {
		if best < 0 || s.servers[si].backlogEnd < s.servers[best].backlogEnd {
			best = si
		}
	}
	return best
}

// anyIdle reports whether some replica of a model of sub is idle with an
// empty queue.
func (s *sim) anyIdle(sub ensemble.Subset) bool {
	for _, sv := range s.servers {
		if sub.Contains(sv.typeIdx) && !sv.running && len(sv.queue) == 0 {
			return true
		}
	}
	return false
}

// onDeadline handles a buffered query's deadline passing uncommitted.
func (s *sim) onDeadline(q *query) {
	if q.committed || q.finished {
		return
	}
	s.eng.Filter(func(it engine.Item) bool { return it != q })
	if s.cfg.ForceProcess {
		// Fall back to the fastest single model; latency is recorded,
		// the query is not counted as missed.
		s.commit(q, ensemble.Single(s.fastest()))
	}
	// Otherwise the record simply stays missed.
}
