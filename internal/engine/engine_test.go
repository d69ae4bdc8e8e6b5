package engine

import (
	"cmp"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"schemble/internal/adapt"
	"schemble/internal/core"
	"schemble/internal/dataset"
	"schemble/internal/ensemble"
	"schemble/internal/model"
	"schemble/internal/qos"
	"schemble/internal/rcache"
)

// The tests drive the engine the way a driver does, from a script: a fake
// fleet whose room the test sets, a scheduler that plans what the test
// says, a predictor that reads the score off the sample, and a clock that
// is a number the test passes in.

const ms = time.Millisecond

// byDifficulty scores a sample by its Difficulty field and counts calls.
type byDifficulty struct{ calls int }

func (e *byDifficulty) Predict(s *dataset.Sample) float64 {
	e.calls++
	return s.Difficulty
}

// regionKeyer keys a sample by its first feature.
type regionKeyer struct{}

func (regionKeyer) Key(f []float64) (int, bool) { return int(f[0]), true }

// countingScorer is an adapt.OutcomeScorer that counts its calls: the
// engine accepts one and must never call it.
type countingScorer struct{ calls int }

func (c *countingScorer) Score([]model.Output, model.Output) float64 {
	c.calls++
	return 0.5
}

// planner is the stub scheduler: it plans assign(q) for every query and
// records what each call was shown.
type planner struct {
	assign func(core.QueryInfo) ensemble.Subset
	calls  [][]int         // query IDs per call
	avail  []core.Capacity // the capacity each call saw, copied
}

func (*planner) Name() string { return "stub" }
func (p *planner) Schedule(_ time.Duration, qs []core.QueryInfo, avail core.Capacity, _ []time.Duration, _ core.Rewarder) core.Plan {
	var ids []int
	plan := core.Plan{Assignments: map[int]ensemble.Subset{}}
	for _, q := range qs {
		ids = append(ids, q.ID)
		plan.Assignments[q.ID] = p.assign(q)
	}
	seen := make(core.Capacity, len(avail))
	for k := range avail {
		seen[k] = append([]time.Duration(nil), avail[k]...)
	}
	p.calls, p.avail = append(p.calls, ids), append(p.avail, seen)
	return plan
}

// sizeReward prefers larger subsets.
type sizeReward struct{}

func (sizeReward) Reward(_ float64, s ensemble.Subset) float64 { return float64(s.Size()) }

// req is the test's request type.
type req struct {
	Query
	sample *dataset.Sample
	// What a fleet tracks of a committed request: the tasks still to
	// finish, the models that succeeded, the count of those that failed.
	committed bool
	left      int
	ok        ensemble.Subset
	failed    int
}

// fleet is a scripted Executor with one FIFO queue per model: model k has
// room while its queue holds fewer than depth[k] tasks, and a subset while
// every model of it does — serve's quantifier — or, with some, while one
// does.
type fleet struct {
	t       *testing.T
	depth   []int
	queue   [][]*req
	blocked ensemble.Subset
	busy    core.Capacity
	exec    []time.Duration
	log     []string // "capacity" reads and "commit id subset level"
	// asked is every subset Room was asked about, in order.
	asked []ensemble.Subset
	// cut counts the commits the ladder's cap took a model from.
	cut int
	// some is sim's quantifier.
	some bool
	// ahead makes the fleet take early tasks; without it Early refuses.
	ahead bool
}

func newFleet(t *testing.T, exec []time.Duration, depth ...int) *fleet {
	f := &fleet{t: t, depth: depth, queue: make([][]*req, len(exec)), exec: exec, busy: make(core.Capacity, len(exec))}
	for k := range f.busy {
		f.busy[k] = make([]time.Duration, 1)
	}
	return f
}

func (f *fleet) Blocked(time.Duration) ensemble.Subset { return f.blocked }
func (f *fleet) Capacity() core.Capacity {
	f.log = append(f.log, "capacity")
	return f.busy
}
func (f *fleet) Room(_ time.Duration, sub ensemble.Subset) bool {
	f.asked = append(f.asked, sub)
	n := 0
	for _, k := range sub.Models() {
		if len(f.queue[k]) < f.depth[k] {
			n++
		}
	}
	if f.some {
		return n > 0
	}
	return n == sub.Size()
}
func (f *fleet) Commit(now time.Duration, it Item, sub ensemble.Subset, lvl qos.Level) {
	r := it.(*req)
	if sub&f.blocked != 0 {
		f.t.Errorf("query %d committed onto %v with %v blocked", r.ID, sub.Models(), f.blocked.Models())
	}
	if sub.Size() > qos.SubsetCap(lvl, len(f.exec)) {
		f.t.Errorf("query %d committed onto %v at level %v, over its cap", r.ID, sub.Models(), lvl)
	}
	// What the cap dropped would have finished no sooner than anything it
	// kept, on the fleet as it stands at this commit.
	if dropped := r.Planned &^ f.blocked &^ sub; dropped != ensemble.Empty {
		f.cut++
		for _, k := range sub.Models() {
			for _, d := range dropped.Models() {
				if f.finish(now, k) > f.finish(now, d) {
					f.t.Errorf("query %d at %v: the cap kept model %d (done at %v) and dropped model %d (done at %v)",
						r.ID, now, k, f.finish(now, k), d, f.finish(now, d))
				}
			}
		}
	}
	r.Subset, r.Level, r.committed, r.left = sub, lvl, true, sub.Size()
	for _, k := range (sub &^ r.Early).Models() {
		f.queue[k] = append(f.queue[k], r)
		f.busy[k][0] = max(f.busy[k][0], now) + f.exec[k]
	}
	f.log = append(f.log, fmt.Sprintf("commit %d %v %v", r.ID, sub.Models(), lvl))
}
func (f *fleet) Early(now time.Duration, it Item, k int) bool {
	r := it.(*req)
	if f.some {
		f.t.Errorf("query %d: an early task on model %d under the some-model rule", r.ID, k)
	}
	if !f.ahead {
		return false
	}
	if r.committed {
		f.t.Errorf("query %d: an early task on model %d after its commit", r.ID, k)
	}
	f.queue[k] = append(f.queue[k], r)
	f.busy[k][0] = max(f.busy[k][0], now) + f.exec[k]
	f.log = append(f.log, fmt.Sprintf("early %d %d", r.ID, k))
	return true
}

// hold books loaded of work on every replica, due at now, and returns f.
func (f *fleet) hold(now time.Duration) *fleet {
	for k := range f.busy {
		for r := range f.busy[k] {
			f.busy[k][r] = now + loaded
		}
	}
	return f
}

// finish is when model k would be done with one more task committed at now.
func (f *fleet) finish(now time.Duration, k int) time.Duration {
	return max(now, slices.Min(f.busy[k])) + f.exec[k]
}

// commits is the log without the capacity reads.
func (f *fleet) commits() []string {
	var out []string
	for _, l := range f.log {
		if l != "capacity" {
			out = append(out, l)
		}
	}
	return out
}

var (
	threeClasses = []qos.Class{
		{Name: "gold", Priority: 2, Deadline: time.Second},
		{Name: "silver", Priority: 1, Deadline: time.Second},
		{Name: "bronze", Priority: 0, Deadline: time.Second},
	}
	// workLadder makes load the seconds of work the fleet holds (the
	// buffered term vanishes at this capacity). The ladder's rungs engage at
	// loads 1, 1.5, 2 and 2.5, one at most per 250 ms, so a pass a tick after
	// the last over a fleet that holds loaded climbs one rung.
	workLadder = qos.Tuning{Capacity: 1e9, Target: time.Second}
)

const (
	// loaded is work that reads as load 4 under workLadder, past every rung.
	loaded = 4 * time.Second
	// tick outlasts the controller's 250 ms dwell between ladder moves.
	tick = 300 * time.Millisecond
)

func testModels() []model.Model {
	var models []model.Model
	for i, lat := range []time.Duration{10 * ms, 20 * ms, 30 * ms} {
		models = append(models, model.NewSynthetic(model.SyntheticConfig{
			Name: fmt.Sprint("m", i), Task: dataset.Classification, Classes: 2, Latency: lat, Seed: uint64(i + 1),
		}))
	}
	return models
}

// rig is an engine over three models (10, 20 and 30 ms) with the stubs
// wired in; tweak adjusts the configuration first.
type rig struct {
	*Engine
	plan *planner
	est  *byDifficulty
	next int
}

func newRig(tweak func(*Config)) *rig {
	r := &rig{plan: &planner{assign: func(core.QueryInfo) ensemble.Subset { return ensemble.Full(3) }}, est: &byDifficulty{}}
	models := testModels()
	cfg := Config{
		Ensemble:  ensemble.New(dataset.Classification, models, &ensemble.Average{}, nil),
		Scheduler: r.plan,
		Rewarder:  sizeReward{},
		Estimator: r.est,
		Replicas:  []int{1, 1, 1},
		BaseExec:  []time.Duration{10 * ms, 20 * ms, 30 * ms},
	}
	if tweak != nil {
		tweak(&cfg)
	}
	r.Engine = New(cfg)
	return r
}

// arrive sends one request through the pre-buffer path and buffers it if
// it was admitted.
func (r *rig) arrive(now time.Duration, class string, score float64, region int, budget time.Duration) (*req, Arrival) {
	ci, budget := r.Classify(class, budget)
	q := &req{
		Query:  Query{Class: ci, Arrival: now, Deadline: now + budget},
		sample: &dataset.Sample{ID: r.next, Features: []float64{float64(region)}, Difficulty: score},
	}
	r.next++
	a := r.Arrive(&q.Query, q.sample)
	if a.Verdict == Admitted {
		r.Buffer(q)
	}
	return q, a
}

// climb runs passes a tick apart from rung 0 against a fleet without room
// until the ladder stands one rung below rung: the next pass, a tick later and
// the one the test is about, steps onto it if its fleet holds loaded. The
// first pass holds no work; each one after it holds loaded.
func (r *rig) climb(t *testing.T, now *time.Duration, rung int) {
	t.Helper()
	full := newFleet(t, r.Exec(), 0, 0, 0)
	for pass := 0; pass == 0 || r.QoS.Ladder() < rung-1; pass++ {
		if pass > 2*rung {
			t.Fatalf("ladder at %d after %d passes: never got within a pass of rung %d", r.QoS.Ladder(), pass, rung)
		}
		*now += tick
		if pass > 0 {
			full.hold(*now)
		}
		if r.Pass(*now, full) != 0 {
			t.Fatal("a pass committed onto a fleet without room")
		}
	}
}

func outputs() []model.Output {
	return []model.Output{{Probs: []float64{0.9, 0.1}}, {Probs: []float64{0.6, 0.4}}, {Probs: []float64{0.3, 0.7}}}
}

func classSnap(t *testing.T, e *Engine, name string) qos.ClassSnapshot {
	t.Helper()
	_, _, snaps := e.QoS.Snapshot()
	for _, c := range snaps {
		if c.Name == name {
			return c
		}
	}
	t.Fatalf("no class %q", name)
	return qos.ClassSnapshot{}
}

// ---- (a) the order of the pipeline, feature by feature ----

// TestArriveHitIsNeverShed: with bronze held at shed, an easy bronze query
// in a filled region is answered from the cache and admission never hears
// of it; a hard one, and an easy one in an empty region, are shed, having
// been looked up first.
func TestArriveHitIsNeverShed(t *testing.T) {
	r := newRig(func(c *Config) {
		c.Classes, c.Admission = threeClasses, workLadder
		c.Cache = rcache.Config{Keyer: regionKeyer{}, DifficultyMax: 0.5}
	})
	now := ms
	filler, a := r.arrive(now, "bronze", 0.1, 7, 0)
	if a.Verdict != Admitted || a.Cache != "miss" || !filler.Cacheable {
		t.Fatalf("first easy arrival: %+v cacheable=%v, want an admitted cacheable miss", a, filler.Cacheable)
	}
	f := newFleet(t, r.Exec(), 1, 1, 1)
	r.Pass(now, f)
	st := r.Settle(&filler.Query, outputs(), filler.Subset, 0, false)
	r.Delivered(now+30*ms, &filler.Query, st)

	r.arrive(now, "gold", 0.9, 100, 0)
	now += 40 * ms
	r.climb(t, &now, 3)
	now += tick
	r.Pass(now, newFleet(t, r.Exec(), 0, 0, 0).hold(now))
	if lvl := r.QoS.Level(2); lvl != qos.LevelShed {
		t.Fatalf("bronze at %v after the climb, want shed", lvl)
	}

	before := classSnap(t, r.Engine, "bronze")
	_, hit := r.arrive(now, "bronze", 0.1, 7, 0)
	if hit.Verdict != Hit || !reflect.DeepEqual(hit.Value.Output, st.Output) || hit.Value.Subset != filler.Subset {
		t.Fatalf("easy bronze arrival in the filled region: %+v, want the filled answer", hit)
	}
	if after := classSnap(t, r.Engine, "bronze"); after != before {
		t.Errorf("a hit moved bronze's admission state: %+v -> %+v", before, after)
	}
	if _, a := r.arrive(now, "bronze", 0.9, 7, 0); a.Verdict != Shed || a.Cache != "bypass" {
		t.Errorf("hard bronze arrival: %+v, want shed after a bypass", a)
	}
	if _, a := r.arrive(now, "bronze", 0.1, 8, 0); a.Verdict != Shed || a.Cache != "miss" {
		t.Errorf("easy bronze arrival in an empty region: %+v, want shed after a miss", a)
	}
	if after := classSnap(t, r.Engine, "bronze"); after.Shed != before.Shed+2 {
		t.Errorf("bronze sheds %d -> %d over two shed arrivals", before.Shed, after.Shed)
	}
	if cs := r.Cache.Snapshot(); cs.Hits+cs.Misses+cs.Bypasses != uint64(r.next) {
		t.Errorf("%d lookups for %d arrivals", cs.Hits+cs.Misses+cs.Bypasses, r.next)
	}
}

// TestArriveScoresEveryArrivalOnce: shed or not, an arrival is scored once
// and reaches the score-drift window. The window is judged only if it saw
// all n arrivals, the detector's minimum, and its mean is the baseline.
func TestArriveScoresEveryArrivalOnce(t *testing.T) {
	const n = 8
	r := newRig(func(c *Config) {
		c.Classes, c.Admission = threeClasses, workLadder
		c.Adapt = adapt.Config{Enable: true}
	})
	now := ms
	r.arrive(now, "gold", 0.9, 0, 0)
	r.climb(t, &now, 3)
	now += tick
	r.Pass(now, newFleet(t, r.Exec(), 0, 0, 0).hold(now))
	sum, shed := 0.9, 0
	for i := 1; i < n; i++ {
		score := float64(i) / 16
		sum += score
		if _, a := r.arrive(now, "bronze", score, 0, 0); a.Verdict == Shed {
			shed++
		}
	}
	if shed != n-1 {
		t.Fatalf("%d of %d bronze arrivals shed with bronze at shed", shed, n-1)
	}
	r.arrive(now+2*time.Second, "gold", 0.5, 0, 0) // closes the first window
	if r.est.calls != r.next {
		t.Errorf("predictor asked %d times for %d arrivals", r.est.calls, r.next)
	}
	if got, want := r.Adapt.Snapshot().BaselineScore, sum/n; got != want {
		t.Errorf("score baseline %v, want %v: the mean over all %d arrivals, the shed ones included", got, want, n)
	}
}

// TestNilEstimatorScoresHalf: without a predictor every query scores 0.5,
// and adaptation still sees it.
func TestNilEstimatorScoresHalf(t *testing.T) {
	r := newRig(func(c *Config) {
		c.Estimator = nil
		c.Adapt = adapt.Config{Enable: true}
	})
	// Eight arrivals fill the first score window; one 2 s later closes it.
	for i := 0; i <= 8; i++ {
		at := time.Duration(i) * ms
		if i == 8 {
			at = 2 * time.Second
		}
		if q, _ := r.arrive(at, "", 0.9, 0, time.Second); q.Score != 0.5 {
			t.Fatalf("score %v without a predictor, want 0.5", q.Score)
		}
	}
	if got := r.Adapt.Snapshot().BaselineScore; got != 0.5 {
		t.Errorf("score baseline %v: adaptation did not observe the default score", got)
	}
}

// TestSettleFillsAndLearnsOnlyFromCleanResults: a cacheable miss fills its
// entry only from an in-time result at full quality.
func TestSettleFillsAndLearnsOnlyFromCleanResults(t *testing.T) {
	full := ensemble.Full(3)
	cases := []struct {
		name     string
		sub, ok  ensemble.Subset
		failed   int
		late     bool
		lvl      qos.Level
		fill     bool
		degraded bool
	}{
		{name: "clean full ensemble", sub: full, ok: full, fill: true},
		{name: "clean planned pair", sub: 0b011, ok: 0b011, fill: true},
		{name: "a task failed", sub: full, ok: 0b011, failed: 1, degraded: true},
		{name: "ladder-capped", sub: 0b011, ok: 0b011, lvl: qos.LevelCapped, degraded: true},
		{name: "late", sub: full, ok: full, late: true},
	}
	for region, tc := range cases {
		r := newRig(func(c *Config) {
			c.Cache = rcache.Config{Keyer: regionKeyer{}, DifficultyMax: 0.5}
		})
		q, a := r.arrive(0, "", 0.1, region, time.Second)
		if a.Cache != "miss" {
			t.Fatalf("%s: lookup %q, want a miss", tc.name, a.Cache)
		}
		q.Subset, q.Level = tc.sub, tc.lvl
		st := r.Settle(&q.Query, outputs(), tc.ok, tc.failed, tc.late)
		r.Delivered(50*ms, &q.Query, st)
		if st.Degraded != tc.degraded {
			t.Errorf("%s: degraded=%v, want %v", tc.name, st.Degraded, tc.degraded)
		}
		if got := r.Cache.Snapshot().Fills == 1; got != tc.fill {
			t.Errorf("%s: filled=%v, want %v", tc.name, got, tc.fill)
		}
		if _, again := r.arrive(60*ms, "", 0.1, region, time.Second); (again.Verdict == Hit) != tc.fill {
			t.Errorf("%s: the next easy arrival of the region: %+v", tc.name, again)
		}
	}
}

// ---- (b) the pass ----

// TestPassGate: with no unblocked model that has room nothing is planned
// and nothing leaves — a blocked model's room does not count. The gate asks
// about each unblocked model alone, so a full model does not hold back a
// query planned onto another one.
func TestPassGate(t *testing.T) {
	r := newRig(nil)
	r.plan.assign = func(q core.QueryInfo) ensemble.Subset {
		return []ensemble.Subset{ensemble.Full(3), ensemble.Single(1)}[q.ID]
	}
	r.arrive(0, "", 0.5, 0, time.Second)
	r.arrive(0, "", 0.5, 0, time.Second)
	f := newFleet(t, r.Exec(), 0, 1, 0)
	f.blocked = ensemble.Single(1)
	if left := r.Pass(ms, f); left != 0 || len(r.plan.calls) != 0 || r.Buffered() != 2 {
		t.Fatalf("gated pass: %d left, %d scheduler calls, %d buffered", left, len(r.plan.calls), r.Buffered())
	}
	f.blocked = ensemble.Empty
	if left := r.Pass(2*ms, f); left != 1 || len(r.plan.calls) != 1 {
		t.Fatalf("pass with room on model 1: %d left, %d scheduler calls", left, len(r.plan.calls))
	}
	// The gate's questions, then the plan's: the query planned onto all three
	// waits for models 0 and 2, the one planned onto model 1 commits.
	one := ensemble.Single
	if want := []ensemble.Subset{one(0), one(2), one(0), one(1), ensemble.Full(3), one(1)}; !reflect.DeepEqual(f.asked, want) {
		t.Errorf("Room was asked about %v, want %v", f.asked, want)
	}
	if want := []string{"commit 1 [1] full"}; !reflect.DeepEqual(f.commits(), want) {
		t.Errorf("commits %q, want %q", f.commits(), want)
	}
	// An empty buffer is observed but not planned.
	empty := newRig(nil)
	if left := empty.Pass(ms, f); left != 0 || len(empty.plan.calls) != 0 {
		t.Fatalf("pass over an empty buffer: %d left, %d scheduler calls", left, len(empty.plan.calls))
	}
}

// TestPassStripsBlockedModels: the scheduler sees a blocked model out of
// reach, a plan that names it anyway commits without it, and a query
// planned onto nothing else stays.
func TestPassStripsBlockedModels(t *testing.T) {
	r := newRig(nil)
	r.plan.assign = func(q core.QueryInfo) ensemble.Subset {
		if q.ID == 1 {
			return ensemble.Single(1)
		}
		return ensemble.Full(3)
	}
	for i := 0; i < 3; i++ {
		r.arrive(0, "", 0.5, 0, time.Second)
	}
	f := newFleet(t, r.Exec(), 9, 9, 9)
	f.blocked = ensemble.Single(1)
	if left := r.Pass(5*ms, f); left != 2 || r.Buffered() != 1 {
		t.Fatalf("%d left, %d buffered, want 2 and 1", left, r.Buffered())
	}
	if want := []string{"commit 0 [0 2] full", "commit 2 [0 2] full"}; !reflect.DeepEqual(f.commits(), want) {
		t.Errorf("commits %q, want %q", f.commits(), want)
	}
	if seen := r.plan.avail[0]; seen[1][0] != 5*ms+blockHorizon || seen[0][0] != 0 {
		t.Errorf("scheduler saw capacity %v, want model 1 at now + blockHorizon and the rest untouched", seen)
	}
}

// TestPassLadder: at rung 2 of three classes the configured scheduler plans
// all three queries in one call, and each commits in deadline order at its
// class's level: gold onto the whole plan, silver onto the two models that
// finish its task first, and bronze, admitted before its class climbed to
// shed, capped like silver. The fleet's view is read once for the load, once
// for the plan, and once for every subset the cap cuts.
func TestPassLadder(t *testing.T) {
	r := newRig(func(c *Config) { c.Classes, c.Admission = threeClasses, workLadder })
	now := ms
	for _, class := range []string{"bronze", "gold", "silver"} {
		r.arrive(now, class, 0.5, 0, 0)
	}
	r.climb(t, &now, 2)
	now += tick
	f := newFleet(t, r.Exec(), 9, 9, 9).hold(now)
	if left := r.Pass(now, f); left != 3 {
		t.Fatalf("%d left, want all 3", left)
	}
	if got := r.QoS.Ladder(); got != 2 {
		t.Fatalf("ladder at %d during the pass, want 2", got)
	}
	if want := [][]int{{0, 1, 2}}; !reflect.DeepEqual(r.plan.calls, want) {
		t.Errorf("configured scheduler planned %v, want every buffered query in one call %v", r.plan.calls, want)
	}
	want := []string{"capacity", "capacity", "capacity", "commit 0 [0 1] capped", "commit 1 [0 1 2] full",
		"capacity", "commit 2 [0 1] capped"}
	if !reflect.DeepEqual(f.log, want) {
		t.Errorf("pass did %q, want %q", f.log, want)
	}
}

// TestStagedFleetUnderTargetHoldsRung0: a fully staged fleet — no model has
// room, so every pass is gated — whose committed work and short buffer come
// to well under Target reads as the load that work is, pass after pass, and
// the ladder never leaves rung 0: a fleet that is busy is not overloaded.
func TestStagedFleetUnderTargetHoldsRung0(t *testing.T) {
	r := newRig(func(c *Config) {
		c.Classes = threeClasses
		// The first rung engages at load 1; a buffered query is 10 ms.
		c.Admission = qos.Tuning{Capacity: 100, Target: time.Second}
	})
	for _, class := range []string{"gold", "silver", "bronze"} {
		r.arrive(0, class, 0.5, 0, 10*time.Second)
	}
	staged := newFleet(t, r.Exec(), 0, 0, 0)
	for now := ms; now <= 500*ms; now += ms {
		for k := range staged.busy {
			// One task running, one staged behind it.
			staged.busy[k][0] = now + 2*r.Exec()[k]
		}
		if r.Pass(now, staged) != 0 {
			t.Fatal("a pass committed onto a fleet without room")
		}
		if got, want := r.QoS.Load(), 0.06+0.03; math.Abs(got-want) > 1e-9 || r.QoS.Ladder() != 0 {
			t.Fatalf("pass at %v: load %v, ladder %d; want %v at rung 0", now, got, r.QoS.Ladder(), want)
		}
	}
	for ci := 0; ci < 3; ci++ {
		if lvl := r.QoS.Level(ci); lvl != qos.LevelFull {
			t.Errorf("class %d at %v after the staged passes", ci, lvl)
		}
	}
}

// TestPassRoomCheck: a query commits only if the executor has room for the
// subset it would commit onto — after the blocked-model strip and the
// ladder's cap, not the plan — and what stays keeps its order.
func TestPassRoomCheck(t *testing.T) {
	r := newRig(nil)
	r.plan.assign = func(q core.QueryInfo) ensemble.Subset {
		return []ensemble.Subset{ensemble.Single(0), ensemble.Empty, ensemble.Single(2), 0b101, 0b011}[q.ID]
	}
	var qs []*req
	for i := 0; i < 5; i++ {
		q, _ := r.arrive(0, "", 0.5, 0, time.Second)
		qs = append(qs, q)
	}
	// Model 1 is blocked and full, model 2 full.
	f := newFleet(t, r.Exec(), 2, 0, 0)
	f.blocked = ensemble.Single(1)
	if left := r.Pass(ms, f); left != 2 || r.Buffered() != 3 {
		t.Fatalf("%d left, %d buffered, want 2 and 3", left, r.Buffered())
	}
	// 0 has room on its model; 1 has no plan; 2's only model is full, and so
	// is one of 3's; 4 commits onto what the strip left of its plan.
	if want := []string{"commit 0 [0] full", "commit 4 [0] full"}; !reflect.DeepEqual(f.commits(), want) {
		t.Errorf("commits %q, want %q", f.commits(), want)
	}
	one := ensemble.Single
	if want := []ensemble.Subset{one(0), one(0), one(2), 0b101, one(0)}; !reflect.DeepEqual(f.asked, want) {
		t.Errorf("Room was asked about %v, want the gate's model 0, then %v", f.asked, want[1:])
	}
	if r.buffer[0] != Item(qs[1]) || r.buffer[1] != Item(qs[2]) || r.buffer[2] != Item(qs[3]) {
		t.Error("the queries that stayed changed order")
	}
	r.Filter(func(it Item) bool { return it != qs[2] })
	if r.Buffered() != 2 || r.buffer[0] != Item(qs[1]) || r.buffer[1] != Item(qs[3]) {
		t.Errorf("%d buffered after filtering the middle one of three out", r.Buffered())
	}

	// Capped to two, a plan of all three asks about the two models that
	// finish first, and commits while the third is full.
	r = newRig(func(c *Config) {
		c.Classes = []qos.Class{{Name: "only", Deadline: time.Second}}
		c.Admission = workLadder
	})
	now := ms
	r.arrive(now, "only", 0.5, 0, 0)
	r.climb(t, &now, 1)
	now += tick
	f = newFleet(t, r.Exec(), 9, 9, 0).hold(now)
	if left := r.Pass(now, f); left != 1 || r.QoS.Level(0) != qos.LevelCapped {
		t.Fatalf("%d left at %v, want the query committed capped", left, r.QoS.Level(0))
	}
	if got, want := f.asked[len(f.asked)-1], ensemble.Subset(0b011); got != want {
		t.Errorf("Room was asked about %v for a capped commit, want %v", got.Models(), want.Models())
	}
}

// table is a Rewarder that reads each subset's reward off a map, whatever
// the score.
type table map[ensemble.Subset]float64

func (r table) Reward(_ float64, s ensemble.Subset) float64 { return r[s] }

// TestPassPartCommit: a query whose subset has no room commits onto the
// strict part of it that has room and gives up at most partLoss of its
// reward, the highest-reward such part, ties to fewer models and then the
// lower mask; with none it waits. Room is asked only of a part that passes
// on reward. The query keeps its plan and its level.
func TestPassPartCommit(t *testing.T) {
	for _, tc := range []struct {
		name   string
		plan   ensemble.Subset // all three when unset
		reward table
		depth  []int
		capped bool // the class stands at the capped rung
		some   bool // sim's room rule
		want   ensemble.Subset
		asked  []ensemble.Subset // after the gate's questions
	}{
		{
			name:   "within a step, the best part with room",
			reward: table{0b111: 1, 0b110: 0.999, 0b011: 0.995, 0b001: 0.992, 0b010: 0.8},
			depth:  []int{1, 1, 0},
			want:   0b011,
			asked:  []ensemble.Subset{0b111, 0b110, 0b011},
		},
		{
			name:   "0.011 below waits",
			reward: table{0b111: 1, 0b110: 0.989, 0b101: 0.989, 0b011: 0.989, 0b001: 0.98, 0b010: 0.98, 0b100: 0.98},
			depth:  []int{1, 1, 0},
			asked:  []ensemble.Subset{0b111},
		},
		{
			name:   "ties to fewer models, then the lower mask",
			reward: table{0b111: 1, 0b110: 0.995, 0b101: 0.995, 0b011: 0.995, 0b001: 0.995, 0b010: 0.995, 0b100: 0.995},
			depth:  []int{1, 1, 0},
			want:   0b001,
			asked:  []ensemble.Subset{0b111, 0b110, 0b101, 0b100, 0b011, 0b010, 0b001},
		},
		{
			// Capped to the two models that finish first, the reference is
			// {0,1}'s 0.95: model 0 alone is within a step of that, not of
			// the whole plan's 1.
			name:   "the reference is the capped subset's reward",
			reward: table{0b111: 1, 0b011: 0.95, 0b001: 0.945, 0b010: 0.9},
			depth:  []int{9, 0, 9},
			capped: true,
			want:   0b001,
			asked:  []ensemble.Subset{0b011, 0b001},
		},
		{
			// Model 2 keeps the gate open. Under sim's rule a subset without
			// room has no model with room, so no part of it has room either.
			name:   "the some-model rule never falls back",
			plan:   0b011,
			reward: table{0b011: 1, 0b001: 1, 0b010: 1},
			depth:  []int{0, 0, 1},
			some:   true,
			asked:  []ensemble.Subset{0b011, 0b010, 0b001},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(func(c *Config) {
				c.Rewarder = tc.reward
				if tc.capped {
					c.Classes = []qos.Class{{Name: "only", Deadline: time.Second}}
					c.Admission = workLadder
				}
			})
			plan := cmp.Or(tc.plan, ensemble.Full(3))
			r.plan.assign = func(core.QueryInfo) ensemble.Subset { return plan }
			now := ms
			class, lvl := "", qos.LevelFull
			if tc.capped {
				class, lvl = "only", qos.LevelCapped
			}
			q, _ := r.arrive(now, class, 0.5, 0, 0)
			f := newFleet(t, r.Exec(), tc.depth...)
			f.some = tc.some
			if tc.capped {
				r.climb(t, &now, 1)
				now += tick
				f.hold(now)
			}
			left := r.Pass(now, f)
			if tc.want == ensemble.Empty {
				if left != 0 || q.committed || r.PartCommits() != 0 {
					t.Fatalf("committed onto %v (%d left, %d part commits), want the query to wait", q.Subset.Models(), left, r.PartCommits())
				}
			} else if left != 1 || q.Subset != tc.want || q.Level != lvl || r.PartCommits() != 1 {
				t.Fatalf("committed onto %v at %v (%d left, %d part commits), want %v at %v",
					q.Subset.Models(), q.Level, left, r.PartCommits(), tc.want.Models(), lvl)
			}
			if q.Planned != plan {
				t.Errorf("planned %v, want the scheduler's %v kept", q.Planned.Models(), plan.Models())
			}
			if n := len(f.asked) - len(tc.asked); n < 0 || !reflect.DeepEqual(f.asked[n:], tc.asked) {
				t.Errorf("Room was asked about %v, want the gate's questions, then %v", f.asked, tc.asked)
			}
		})
	}
}

// sunkSpy is the DP, recording the queries each call was shown.
type sunkSpy struct {
	core.DP
	seen [][]core.QueryInfo
}

func (s *sunkSpy) Schedule(now time.Duration, qs []core.QueryInfo, avail core.Capacity, exec []time.Duration, r core.Rewarder) core.Plan {
	s.seen = append(s.seen, slices.Clone(qs))
	return s.DP.Schedule(now, qs, avail, exec, r)
}

// TestPassEarlyTask: after its commits a pass gives each unblocked model
// with an idle replica one task of a query left waiting, the first in commit
// order whose plan holds the model and that the model can finish by its
// deadline. The query stays buffered; Room is then asked only about the
// models of its subset without an early task, the commit dispatches only
// those, and a plan inside its early models commits without a question. A
// commit onto a subset without an early model adds it back when that costs
// no reward, and a re-plan by the DP sees the early task as the query's own.
// Under sim's some-model rule the commits take every such query first.
func TestPassEarlyTask(t *testing.T) {
	pair := ensemble.Subset(0b011)
	one := ensemble.Single
	now := ms
	// Three queries planned onto models 0 and 1, deadlines 300, 100 and
	// 5 ms: the last cannot finish even model 0's 10 ms task in time. Model
	// 0 is idle with room for one task, model 1 runs one and has no room,
	// model 2 is idle with room but planned for nobody.
	setup := func(t *testing.T) (*rig, *fleet, []*req) {
		r := newRig(nil)
		r.plan.assign = func(core.QueryInfo) ensemble.Subset { return pair }
		var qs []*req
		for _, budget := range []time.Duration{300 * ms, 100 * ms, 5 * ms} {
			q, _ := r.arrive(0, "", 0.5, 0, budget)
			qs = append(qs, q)
		}
		f := newFleet(t, r.Exec(), 1, 0, 1)
		f.ahead = true
		f.busy[1][0] = 50 * ms
		return r, f, qs
	}
	t.Run("one task, to the most urgent query that can use it", func(t *testing.T) {
		r, f, qs := setup(t)
		if left := r.Pass(now, f); left != 0 || r.Buffered() != 3 {
			t.Fatalf("%d left, %d buffered, want every query to wait", left, r.Buffered())
		}
		if want := []string{"early 1 0"}; !reflect.DeepEqual(f.commits(), want) {
			t.Errorf("pass did %q, want %q", f.commits(), want)
		}
		if qs[0].Early != 0 || qs[1].Early != one(0) || qs[2].Early != 0 {
			t.Errorf("early tasks %v %v %v, want model 0 on query 1 alone", qs[0].Early, qs[1].Early, qs[2].Early)
		}
		// The next pass finds model 0 busy with it.
		if r.Pass(now+ms, f); len(f.commits()) != 1 {
			t.Errorf("pass did %q, want nothing more", f.commits())
		}
	})
	t.Run("none to a blocked, busy or staged model", func(t *testing.T) {
		for _, tc := range []struct {
			name    string
			blocked ensemble.Subset
			busy    time.Duration // model 0's replica
		}{
			{"blocked", one(0), 0},
			{"busy", 0, now + ms},
			{"staged", 0, now + 15*ms},
		} {
			r, f, _ := setup(t)
			f.blocked, f.busy[0][0] = tc.blocked, tc.busy
			r.Pass(now, f)
			if len(f.commits()) != 0 {
				t.Errorf("%s: pass did %q, want nothing", tc.name, f.commits())
			}
		}
	})
	t.Run("room for the rest, a commit of the rest", func(t *testing.T) {
		r, f, qs := setup(t)
		r.Pass(now, f)
		f.asked, f.depth[1], f.busy[1][0] = nil, 1, now+30*ms
		if left := r.Pass(now+ms, f); left != 1 || !qs[1].committed {
			t.Fatalf("%d left, want query 1 committed", left)
		}
		// The gate's questions, then query 2's whole pair (model 0 holds the
		// early task), query 1's model 1 alone, query 0's pair.
		if want := []ensemble.Subset{one(0), one(1), pair, one(1), pair}; !reflect.DeepEqual(f.asked, want) {
			t.Errorf("Room was asked about %v, want %v", f.asked, want)
		}
		if want := []string{"early 1 0", "commit 1 [0 1] full"}; !reflect.DeepEqual(f.commits(), want) {
			t.Errorf("passes did %q, want %q", f.commits(), want)
		}
		if len(f.queue[0]) != 1 || len(f.queue[1]) != 1 {
			t.Errorf("queues hold %d and %d tasks, want the early one and the commit's", len(f.queue[0]), len(f.queue[1]))
		}
	})
	t.Run("a plan inside its early models commits without a question", func(t *testing.T) {
		r, f, qs := setup(t)
		r.Pass(now, f)
		r.plan.assign = func(q core.QueryInfo) ensemble.Subset {
			if q.ID == 1 {
				return one(0)
			}
			return pair
		}
		f.asked = nil
		if left := r.Pass(now+ms, f); left != 1 || qs[1].Subset != one(0) {
			t.Fatalf("%d left, query 1 on %v, want it committed onto model 0", left, qs[1].Subset)
		}
		if want := []ensemble.Subset{one(0), one(1), one(2), pair, pair}; !reflect.DeepEqual(f.asked, want) {
			t.Errorf("Room was asked about %v, want %v", f.asked, want)
		}
		if len(f.queue[0]) != 1 {
			t.Errorf("model 0 holds %d tasks, want the early one alone", len(f.queue[0]))
		}
	})
	t.Run("a commit keeps its early models when they cost no reward", func(t *testing.T) {
		for _, tc := range []struct {
			name   string
			reward core.Rewarder
			want   string
		}{
			{"more reward", sizeReward{}, "commit 1 [0 1] full"},
			{"less reward", table{pair: 0.5, one(1): 0.6}, "commit 1 [1] full"},
		} {
			r, f, qs := setup(t)
			r.Pass(now, f)
			r.cfg.Rewarder = tc.reward
			r.plan.assign = func(q core.QueryInfo) ensemble.Subset {
				if q.ID == 1 {
					return one(1)
				}
				return ensemble.Empty
			}
			f.depth[1], f.busy[1][0] = 1, now+30*ms
			if left := r.Pass(now+ms, f); left != 1 || !qs[1].committed {
				t.Fatalf("%s: %d left, want query 1 committed", tc.name, left)
			}
			if got := f.commits(); !reflect.DeepEqual(got, []string{"early 1 0", tc.want}) {
				t.Errorf("%s: passes did %q, want the early task, then %q", tc.name, got, tc.want)
			}
			if len(f.queue[0]) != 1 {
				t.Errorf("%s: model 0 holds %d tasks, want the early one alone", tc.name, len(f.queue[0]))
			}
		}
	})
	t.Run("a re-plan keeps the busy model of its own early task", func(t *testing.T) {
		// Model 0 runs the query's task early, due at 11 ms. The DP, shown
		// that task as the query's own, keeps model 0: the query commits onto
		// it and waits for the task it has. Charged a second slot there, it
		// would finish at 21 ms, past its 15 ms deadline, and fit nowhere.
		r := newRig(func(c *Config) { c.Rewarder = table{pair: 1, one(0): 0.6, one(1): 0.6} })
		r.plan.assign = func(core.QueryInfo) ensemble.Subset { return pair }
		q, _ := r.arrive(0, "", 0.5, 0, 15*ms)
		// Model 2 is idle and keeps the gate open; it cannot finish in time.
		f := newFleet(t, r.Exec(), 1, 0, 1)
		f.ahead = true
		f.busy[1][0] = 50 * ms
		if left := r.Pass(ms, f); left != 0 || q.Early != one(0) || q.due[0] != 11*ms {
			t.Fatalf("%d left, early %v due %v: want the query waiting with model 0's task, due at 11ms", left, q.Early.Models(), q.due[0])
		}
		spy := &sunkSpy{}
		r.cfg.Scheduler = spy
		if left := r.Pass(2*ms, f); left != 1 || q.Subset != one(0) {
			t.Fatalf("%d left, query on %v: want it committed onto its early model", left, q.Subset.Models())
		}
		if info := spy.seen[0][0]; info.Sunk != one(0) || info.SunkBy != 11*ms {
			t.Errorf("the scheduler saw sunk %v by %v, want model 0 by 11ms", info.Sunk.Models(), info.SunkBy)
		}
		if want := []string{"early 0 0", "commit 0 [0] full"}; !reflect.DeepEqual(f.commits(), want) {
			t.Errorf("passes did %q, want %q", f.commits(), want)
		}
		if len(f.queue[0]) != 1 {
			t.Errorf("model 0 holds %d tasks, want the early one alone", len(f.queue[0]))
		}
	})
	t.Run("a re-plan counts only its live, unblocked early tasks as sunk", func(t *testing.T) {
		// Models 0 and 1 are idle and run the query's tasks early, due at 11
		// and 21 ms, while it waits for busy model 2. Model 1's task then
		// fails, or model 1 is blocked: either way the survivor, model 0, is
		// the query's sunk task, and it is done at 11 ms.
		for _, tc := range []struct {
			name string
			lose func(*fleet, *req)
		}{
			{"the later of two early tasks fails", func(f *fleet, q *req) {
				q.Early = q.Early.Without(1)
				f.queue[1], f.busy[1][0] = nil, 2*ms
			}},
			{"an early model is blocked", func(f *fleet, _ *req) { f.blocked = one(1) }},
		} {
			r := newRig(nil)
			q, _ := r.arrive(0, "", 0.5, 0, 500*ms)
			// Room for a second task on models 0 and 1 keeps the gate open.
			f := newFleet(t, r.Exec(), 2, 2, 0)
			f.ahead = true
			f.busy[2][0] = 100 * ms
			if left := r.Pass(ms, f); left != 0 || q.Early != pair || q.due[0] != 11*ms || q.due[1] != 21*ms {
				t.Fatalf("%s: %d left, early %v due %v: want the query waiting with models 0 and 1 due at 11 and 21ms",
					tc.name, left, q.Early.Models(), q.due[:2])
			}
			tc.lose(f, q)
			spy := &sunkSpy{}
			r.cfg.Scheduler = spy
			r.Pass(2*ms, f)
			if info := spy.seen[0][0]; info.Sunk != one(0) || info.SunkBy != 11*ms {
				t.Errorf("%s: the scheduler saw sunk %v by %v, want model 0 by 11ms", tc.name, info.Sunk.Models(), info.SunkBy)
			}
		}
	})
	t.Run("the some-model rule commits first", func(t *testing.T) {
		r, f, _ := setup(t)
		f.some = true
		r.Pass(now, f)
		if want := []string{"commit 2 [0 1] full"}; !reflect.DeepEqual(f.commits(), want) {
			t.Errorf("pass did %q, want %q", f.commits(), want)
		}
	})
}

// ---- (c) the overload decisions read the fleet ----

// TestCapSpreads: one class held at the capped level, models of 20, 80 and 90
// ms, ten queries the scheduler plans onto all three, one pass onto a fleet
// holding the same work on every model. Capped to two, every query keeps the
// fast model and the other task alternates between the slow two as each
// fills. (That no commit keeps a model that finishes after one it dropped,
// the fleet checks.)
func TestCapSpreads(t *testing.T) {
	r := newRig(func(c *Config) {
		c.Classes = []qos.Class{{Name: "only", Deadline: 2 * time.Second}}
		c.Admission = workLadder
		c.BaseExec = []time.Duration{20 * ms, 80 * ms, 90 * ms}
	})
	now := ms
	for i := 0; i < 10; i++ {
		r.arrive(now, "only", 0.5, 0, 0)
	}
	r.climb(t, &now, 1)
	now += tick
	f := newFleet(t, r.Exec(), 99, 99, 99).hold(now)
	if left := r.Pass(now, f); left != 10 || r.QoS.Level(0) != qos.LevelCapped {
		t.Fatalf("%d of 10 left in a pass at %v", left, r.QoS.Level(0))
	}
	n := []int{len(f.queue[0]), len(f.queue[1]), len(f.queue[2])}
	if f.cut != 10 {
		t.Errorf("the cap cut %d of 10 plans", f.cut)
	}
	if want := []int{10, 5, 5}; !reflect.DeepEqual(n, want) {
		t.Errorf("tasks per model %v, want %v", n, want)
	}
}

// TestLoadIsWork: what a pass feeds the controller is the seconds of work
// committed to the most loaded model, read off the fleet's own view, plus
// the buffered queries at the admission capacity — not a count of tasks.
func TestLoadIsWork(t *testing.T) {
	// Load reads the last observation, in seconds (Target 1 s); the capacity
	// prices a buffered query at 10 ms.
	tuning := qos.Tuning{Capacity: 100, Target: time.Second}
	const now = 500 * ms
	at := func(d ...time.Duration) []time.Duration {
		for i := range d {
			d[i] += now
		}
		return d
	}
	for _, tc := range []struct {
		name     string
		busy     core.Capacity
		buffered int
		load     float64
		work     []time.Duration
	}{
		{"ten staged 20 ms tasks on model 0", core.Capacity{at(200 * ms), at(0), at(0)}, 0, 0.2, []time.Duration{200 * ms, 0, 0}},
		{"one 90 ms task on model 2", core.Capacity{at(0), at(0), at(90 * ms)}, 0, 0.09, []time.Duration{0, 0, 90 * ms}},
		{"the same work over two replicas", core.Capacity{at(200*ms, 0), at(0), at(0)}, 0, 0.1, []time.Duration{100 * ms, 0, 0}},
		{"the deepest model, not the sum", core.Capacity{at(200 * ms), at(150 * ms), at(90 * ms)}, 0, 0.2, []time.Duration{200 * ms, 150 * ms, 90 * ms}},
		{"a replica that drained long ago", core.Capacity{at(-400*ms, 60*ms), at(0), at(0)}, 0, 0.03, []time.Duration{30 * ms, 0, 0}},
		{"an empty fleet, three buffered", core.Capacity{at(0), at(0), at(0)}, 3, 0.03, []time.Duration{0, 0, 0}},
		{"work and buffer add", core.Capacity{at(0), at(80 * ms), at(0)}, 2, 0.1, []time.Duration{0, 80 * ms, 0}},
	} {
		r := newRig(func(c *Config) { c.Admission = tuning })
		for i := 0; i < tc.buffered; i++ {
			r.arrive(now, "", 0.5, 0, time.Second)
		}
		f := newFleet(t, r.Exec(), 0, 0, 0)
		f.busy = tc.busy
		r.Pass(now, f)
		if got := r.QoS.Load(); math.Abs(got-tc.load) > 1e-9 {
			t.Errorf("%s: load %v, want %v", tc.name, got, tc.load)
		}
		if !reflect.DeepEqual(r.Work(), tc.work) {
			t.Errorf("%s: per-model work %v, want %v", tc.name, r.Work(), tc.work)
		}
	}

	// An open breaker pushes its model blockHorizon away in the scheduler's
	// view only: the controller reads what the model really holds.
	r := newRig(func(c *Config) { c.Admission = tuning })
	r.arrive(now, "", 0.5, 0, time.Second)
	r.arrive(now, "", 0.5, 0, time.Second)
	f := newFleet(t, r.Exec(), 1, 1, 1)
	f.blocked = ensemble.Single(1)
	f.busy[1][0] = now + 40*ms
	if left := r.Pass(now, f); left != 1 || r.plan.avail[0][1][0] != now+blockHorizon {
		t.Fatalf("%d left, scheduler saw %v: want one commit around a model pushed out of reach", left, r.plan.avail[0])
	}
	if f.busy[1][0] != now+40*ms {
		t.Fatalf("the push wrote through to the fleet's view: model 1 busy until %v", f.busy[1][0])
	}
	// Model 1's 40 ms and the two buffered queries.
	if got, want := r.QoS.Load(), 0.04+0.02; math.Abs(got-want) > 1e-9 {
		t.Errorf("load %v with a breaker open, want %v", got, want)
	}
	r.Pass(now+ms, f)
	// Model 1 holds 39 ms, model 2 the commit's 30 ms task less the 1 ms
	// gone.
	if want := []time.Duration{9 * ms, 39 * ms, 29 * ms}; !reflect.DeepEqual(r.Work(), want) {
		t.Errorf("per-model work %v with a breaker open, want %v", r.Work(), want)
	}
}

// still is an Executor that allocates nothing: a commit only books its work.
type still struct {
	busy   core.Capacity
	exec   []time.Duration
	capped int // commits onto exactly two models
}

func (*still) Blocked(time.Duration) ensemble.Subset    { return ensemble.Empty }
func (x *still) Capacity() core.Capacity                { return x.busy }
func (*still) Room(time.Duration, ensemble.Subset) bool { return true }
func (*still) Early(time.Duration, Item, int) bool      { return false }
func (x *still) Commit(now time.Duration, _ Item, sub ensemble.Subset, _ qos.Level) {
	for k := range x.busy {
		if sub.Contains(k) {
			x.busy[k][0] = max(x.busy[k][0], now) + x.exec[k]
		}
	}
	if sub.Size() == 2 {
		x.capped++
	}
}

// fullPlan plans every query onto all three models, into one retained map.
type fullPlan struct{ plan core.Plan }

func (*fullPlan) Name() string { return "full" }
func (p *fullPlan) Schedule(_ time.Duration, qs []core.QueryInfo, _ core.Capacity, _ []time.Duration, _ core.Rewarder) core.Plan {
	clear(p.plan.Assignments)
	for _, q := range qs {
		p.plan.Assignments[q.ID] = ensemble.Full(3)
	}
	return p.plan
}

// TestCappedPassAllocatesNothing: the load observation, the finish vector and
// the truncation live in the engine's scratch. A pass that caps and commits
// four queries onto an executor and a scheduler that allocate nothing
// allocates nothing.
func TestCappedPassAllocatesNothing(t *testing.T) {
	r := newRig(func(c *Config) {
		c.Classes = []qos.Class{{Name: "only", Deadline: time.Second}}
		// The fleet below always holds 1.2 s of work: rung 1 (capped, at load
		// 1) engages a tick after the first pass and keeps, rung 2 (at 1.5) is
		// out of reach.
		c.Admission = workLadder
		c.Scheduler = &fullPlan{plan: core.Plan{Assignments: map[int]ensemble.Subset{}}}
	})
	x := &still{busy: core.Capacity{{0}, {0}, {0}}, exec: r.Exec()}
	reqs := []*req{{}, {}, {}, {}}
	now := time.Duration(0)
	pass := func() {
		now += tick
		for k := range x.busy {
			x.busy[k][0] = now + 1200*ms
		}
		for _, q := range reqs {
			q.Query = Query{Deadline: now + time.Second}
			r.Buffer(q)
		}
		if left := r.Pass(now, x); left != len(reqs) {
			t.Fatalf("%d of %d left", left, len(reqs))
		}
	}
	pass()
	pass()
	x.capped = 0
	if n := testing.AllocsPerRun(50, pass); n != 0 {
		t.Errorf("a capped pass allocates %v times", n)
	}
	if want := 51 * len(reqs); x.capped != want || r.QoS.Level(0) != qos.LevelCapped {
		t.Fatalf("%d of %d commits capped to two models, class at %v", x.capped, want, r.QoS.Level(0))
	}
}

// TestPassCommitOrder: a pass commits in the order the scheduler planned in,
// earliest deadline first with ties to the lower ID, whatever order the
// queries arrived in — and still checks room query by query, so a query
// whose model is full does not hold back a later one whose model is not.
func TestPassCommitOrder(t *testing.T) {
	// One slot on model 0, three queries that all want it.
	r := newRig(nil)
	r.plan.assign = func(core.QueryInfo) ensemble.Subset { return ensemble.Single(0) }
	for _, budget := range []time.Duration{300 * ms, 100 * ms, 100 * ms} {
		r.arrive(0, "", 0.5, 0, budget)
	}
	f := newFleet(t, r.Exec(), 1, 0, 0)
	for f.depth[0] <= 3 {
		r.Pass(ms, f)
		f.depth[0]++
	}
	if want := []string{"commit 1 [0] full", "commit 2 [0] full", "commit 0 [0] full"}; !reflect.DeepEqual(f.commits(), want) {
		t.Errorf("one slot: commits %q, want %q", f.commits(), want)
	}
	if want := []int{0, 1, 2}; !reflect.DeepEqual(r.plan.calls[0], want) {
		t.Errorf("the scheduler was shown %v, want the buffer in arrival order %v", r.plan.calls[0], want)
	}

	// The earliest deadline wants model 0, which is full; the later one
	// wants model 1, which is not.
	r = newRig(nil)
	r.plan.assign = func(q core.QueryInfo) ensemble.Subset { return ensemble.Single(1 - q.ID) }
	late, _ := r.arrive(0, "", 0.5, 0, 300*ms)
	urgent, _ := r.arrive(0, "", 0.5, 0, 100*ms)
	f = newFleet(t, r.Exec(), 0, 1, 0)
	if left := r.Pass(ms, f); left != 1 || r.Buffered() != 1 || r.buffer[0] != Item(urgent) {
		t.Fatalf("%d left, %d buffered: want the urgent query alone to wait", left, r.Buffered())
	}
	if want := []string{"commit 0 [1] full"}; !reflect.DeepEqual(f.commits(), want) || !late.committed {
		t.Errorf("full model first: commits %q, want %q", f.commits(), want)
	}
}

func TestBottleneckCapacity(t *testing.T) {
	models := testModels()
	if got := BottleneckCapacity(models, nil); got != 1/(30*ms).Seconds() {
		t.Errorf("one replica each: %v", got)
	}
	if got := BottleneckCapacity(models, []int{1, 1, 4}); got != 1/(20*ms).Seconds() {
		t.Errorf("four replicas of the slowest: %v", got)
	}
}
