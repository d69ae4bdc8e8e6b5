package core

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"schemble/internal/ensemble"
	"schemble/internal/rng"
)

// SingleReplica lifts a per-model availability vector (one replica per
// model) into a Capacity.
func SingleReplica(avail []time.Duration) Capacity {
	c := make(Capacity, len(avail))
	for k, a := range avail {
		c[k] = []time.Duration{a}
	}
	return c
}

// powRewarder is a synthetic utility satisfying diminishing marginal
// utility: U(score, s) = 1 - score^|s| (clamped to score in [0.05, 0.95]).
type powRewarder struct{}

func (powRewarder) Reward(score float64, s ensemble.Subset) float64 {
	if s == ensemble.Empty {
		return 0
	}
	if score < 0.05 {
		score = 0.05
	}
	if score > 0.95 {
		score = 0.95
	}
	u := 1.0
	for i := 0; i < s.Size(); i++ {
		u *= score
	}
	return 1 - u
}

const ms = time.Millisecond

// checkFeasible simulates the plan in EDF order and fails the test if any
// assigned query misses its deadline.
func checkFeasible(t *testing.T, plan Plan, now time.Duration, queries []QueryInfo, avail Capacity, exec []time.Duration) {
	t.Helper()
	cur, lay := flatten(now, avail)
	scratch := make([]time.Duration, len(cur))
	for _, qi := range edfOrder(queries) {
		q := queries[qi]
		s := plan.Subset(q.ID)
		if s == ensemble.Empty {
			continue
		}
		done := lay.completion(cur, exec, s, scratch)
		if done > q.Deadline {
			t.Fatalf("query %d finishes at %v after deadline %v", q.ID, done, q.Deadline)
		}
		copy(cur, scratch)
	}
}

// completion is completionOf for a query no task of which has started, the
// paper's case, which the reference schedulers and the pinned checks use.
func (l layout) completion(avail, exec []time.Duration, s ensemble.Subset, dst []time.Duration) time.Duration {
	return l.completionOf(&QueryInfo{}, avail, exec, s, dst)
}

// rootRewarder satisfies the paper's Assumption 1 including the corollary
// U(s) >= |s|/m used in Theorem 3's proof: U = (|s|/m)^(0.3+0.6*score),
// which is monotone, concave in subset size, and decreasing in difficulty.
type rootRewarder struct{ m int }

func (r rootRewarder) Reward(score float64, s ensemble.Subset) float64 {
	if s == ensemble.Empty {
		return 0
	}
	frac := float64(s.Size()) / float64(r.m)
	return math.Pow(frac, 0.3+0.6*score)
}

func TestDPSingleEasyQueryGetsFullEnsemble(t *testing.T) {
	d := &DP{Delta: 0.001}
	queries := []QueryInfo{{ID: 1, Deadline: 200 * ms, Score: 0.1}}
	avail := []time.Duration{0, 0, 0}
	exec := []time.Duration{20 * ms, 80 * ms, 90 * ms}
	plan := d.Schedule(0, queries, SingleReplica(avail), exec, powRewarder{})
	if got := plan.Subset(1); got != ensemble.Full(3) {
		t.Errorf("uncontended query got %v, want full ensemble", got)
	}
	checkFeasible(t, plan, 0, queries, SingleReplica(avail), exec)
}

func TestDPRespectsDeadline(t *testing.T) {
	d := &DP{Delta: 0.01}
	// Only the fast model can make this deadline.
	queries := []QueryInfo{{ID: 1, Deadline: 30 * ms, Score: 0.2}}
	avail := []time.Duration{0, 0, 0}
	exec := []time.Duration{20 * ms, 80 * ms, 90 * ms}
	plan := d.Schedule(0, queries, SingleReplica(avail), exec, powRewarder{})
	if got := plan.Subset(1); got != ensemble.Single(0) {
		t.Errorf("tight deadline got %v, want {0}", got)
	}
}

func TestDPImpossibleDeadlineSkips(t *testing.T) {
	d := &DP{Delta: 0.01}
	queries := []QueryInfo{{ID: 1, Deadline: 5 * ms, Score: 0.2}}
	plan := d.Schedule(0, queries, SingleReplica([]time.Duration{0}), []time.Duration{20 * ms}, powRewarder{})
	if got := plan.Subset(1); got != ensemble.Empty {
		t.Errorf("infeasible query got %v, want skip", got)
	}
	if plan.TotalReward != 0 {
		t.Errorf("reward = %v, want 0", plan.TotalReward)
	}
}

func TestDPMotivatingExample(t *testing.T) {
	// The paper's intro example: two easy queries, three models. Running
	// the full ensemble on query 1 starves query 2; splitting the models
	// across the two queries serves both.
	d := &DP{Delta: 0.01}
	g := &Greedy{Order: EDF}
	queries := []QueryInfo{
		{ID: 1, Arrival: 0, Deadline: 150 * ms, Score: 0.1},
		{ID: 2, Arrival: 0, Deadline: 150 * ms, Score: 0.1},
	}
	avail := []time.Duration{0, 0, 0}
	exec := []time.Duration{100 * ms, 100 * ms, 100 * ms}

	dpPlan := d.Schedule(0, queries, SingleReplica(avail), exec, powRewarder{})
	gPlan := g.Schedule(0, queries, SingleReplica(avail), exec, powRewarder{})
	if dpPlan.TotalReward <= gPlan.TotalReward {
		t.Errorf("DP reward %v should beat greedy %v on the motivating example",
			dpPlan.TotalReward, gPlan.TotalReward)
	}
	if dpPlan.Subset(1) == ensemble.Empty || dpPlan.Subset(2) == ensemble.Empty {
		t.Errorf("DP should serve both queries: %v / %v", dpPlan.Subset(1), dpPlan.Subset(2))
	}
	checkFeasible(t, dpPlan, 0, queries, SingleReplica(avail), exec)
}

func TestDPNearOptimalOnRandomInstances(t *testing.T) {
	// Theorem 3: with delta = epsilon/(m*N) and a utility satisfying
	// Assumption 1 (hence OPT >= 1/m when anything is processed), the DP
	// is a (1-epsilon) approximation of the local optimum.
	exh := &Exhaustive{}
	const epsilon = 0.1
	f := func(seed uint64) bool {
		src := rng.New(seed)
		n := 2 + src.Intn(3) // 2..4 queries
		m := 2 + src.Intn(2) // 2..3 models
		queries := make([]QueryInfo, n)
		for i := range queries {
			queries[i] = QueryInfo{
				ID:       i + 1,
				Arrival:  time.Duration(src.Intn(50)) * ms,
				Deadline: time.Duration(60+src.Intn(250)) * ms,
				Score:    src.Float64(),
			}
		}
		avail := make([]time.Duration, m)
		exec := make([]time.Duration, m)
		for k := range exec {
			avail[k] = time.Duration(src.Intn(40)) * ms
			exec[k] = time.Duration(10+src.Intn(90)) * ms
		}
		r := rootRewarder{m: m}
		d := &DP{Delta: epsilon / float64(m*n)}
		dpPlan := d.Schedule(0, queries, SingleReplica(avail), exec, r)
		opt := exh.Schedule(0, queries, SingleReplica(avail), exec, r)
		return dpPlan.TotalReward >= (1-epsilon)*opt.TotalReward-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestDPPlansAlwaysFeasible(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		n := 1 + src.Intn(6)
		m := 2 + src.Intn(3)
		queries := make([]QueryInfo, n)
		for i := range queries {
			queries[i] = QueryInfo{
				ID:       i + 1,
				Arrival:  time.Duration(src.Intn(100)) * ms,
				Deadline: time.Duration(30+src.Intn(300)) * ms,
				Score:    src.Float64(),
			}
		}
		avail := make([]time.Duration, m)
		exec := make([]time.Duration, m)
		for k := range exec {
			avail[k] = time.Duration(src.Intn(60)) * ms
			exec[k] = time.Duration(10+src.Intn(80)) * ms
		}
		plan := (&DP{Delta: 0.01}).Schedule(10*ms, queries, SingleReplica(avail), exec, powRewarder{})
		cur, lay := flatten(10*ms, SingleReplica(avail))
		scratch := make([]time.Duration, len(cur))
		for _, qi := range edfOrder(queries) {
			q := queries[qi]
			s := plan.Subset(q.ID)
			if s == ensemble.Empty {
				continue
			}
			done := lay.completion(cur, exec, s, scratch)
			if done > q.Deadline {
				return false
			}
			copy(cur, scratch)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestGreedyOrders(t *testing.T) {
	// Two queries where FIFO and EDF disagree: the later arrival has the
	// earlier deadline.
	queries := []QueryInfo{
		{ID: 1, Arrival: 0, Deadline: 300 * ms, Score: 0.5},
		{ID: 2, Arrival: 10 * ms, Deadline: 100 * ms, Score: 0.5},
	}
	avail := []time.Duration{0}
	exec := []time.Duration{70 * ms}

	edf := (&Greedy{Order: EDF}).Schedule(20*ms, queries, SingleReplica(avail), exec, powRewarder{})
	if edf.Subset(2) == ensemble.Empty {
		t.Error("EDF should serve the urgent query")
	}
	if edf.Subset(1) == ensemble.Empty {
		t.Error("EDF has room for both queries")
	}
	fifo := (&Greedy{Order: FIFO}).Schedule(20*ms, queries, SingleReplica(avail), exec, powRewarder{})
	if fifo.Subset(1) == ensemble.Empty {
		t.Error("FIFO should serve the first arrival")
	}
	if fifo.Subset(2) != ensemble.Empty {
		t.Error("FIFO serving query 1 first must starve the urgent query 2")
	}
	sjf := (&Greedy{Order: SJF})
	if sjf.Name() != "greedy+sjf" {
		t.Errorf("Name = %q", sjf.Name())
	}
}

func TestGreedySJFOrder(t *testing.T) {
	// SJF processes the lowest-score query first.
	queries := []QueryInfo{
		{ID: 1, Arrival: 0, Deadline: 100 * ms, Score: 0.9},
		{ID: 2, Arrival: 0, Deadline: 100 * ms, Score: 0.1},
	}
	avail := []time.Duration{0}
	exec := []time.Duration{80 * ms}
	plan := (&Greedy{Order: SJF}).Schedule(0, queries, SingleReplica(avail), exec, powRewarder{})
	if plan.Subset(2) == ensemble.Empty {
		t.Error("SJF should serve the easy query first")
	}
	if plan.Subset(1) != ensemble.Empty {
		t.Error("only one query fits; the hard one should be skipped")
	}
}

// TestParetoPruning exercises dpScratch.insert, the insertion method
// DP.Schedule actually runs (a long-dead standalone copy used to be
// tested instead).
func TestParetoPruning(t *testing.T) {
	a := []time.Duration{10, 10}
	b := []time.Duration{20, 20}
	c := []time.Duration{5, 30}
	newLevel := func(maxFront int, vanilla bool) (*dpScratch, *dpTable) {
		s := &dpScratch{maxFront: maxFront, vanilla: vanilla}
		s.setWidth(2)
		s.ensureSteps(1)
		tab := &s.steps[0]
		s.prepTable(tab, 1)
		return s, tab
	}
	avails := func(s *dpScratch, tab *dpTable) [][]time.Duration {
		var out [][]time.Duration
		for _, id := range tab.levels[0].ids {
			out = append(out, s.avail(id))
		}
		return out
	}

	s, tab := newLevel(-1, false)
	s.insert(tab, 0, b, 0.5, -1, ensemble.Empty, 0)
	s.insert(tab, 0, a, 0.5, -1, ensemble.Empty, 0) // a dominates b
	if got := avails(s, tab); len(got) != 1 || !dominates(got[0], a) || !dominates(a, got[0]) {
		t.Fatalf("dominated entry not pruned: %v", got)
	}
	if len(s.entries) != 1 {
		t.Fatalf("pruned entry not recycled for the survivor: %d arena entries", len(s.entries))
	}
	s.insert(tab, 0, c, 0.5, -1, ensemble.Empty, 0) // incomparable with a
	if got := len(tab.levels[0].ids); got != 2 {
		t.Fatalf("incomparable entry dropped: %d entries", got)
	}
	s.insert(tab, 0, b, 0.5, -1, ensemble.Empty, 0) // dominated by a
	if got := len(tab.levels[0].ids); got != 2 {
		t.Fatalf("dominated insert accepted: %d entries", got)
	}
	// Exact-reward refinement: b's vector is dominated by a's, but a
	// strictly higher exact reward keeps it as a "more accurate" way to
	// reach the level.
	s.insert(tab, 0, b, 0.9, -1, ensemble.Empty, 0)
	if got := len(tab.levels[0].ids); got != 3 {
		t.Fatalf("higher-reward dominated entry dropped: %d entries", got)
	}
	// ...and a lower exact reward does not.
	s.insert(tab, 0, a, 0.4, -1, ensemble.Empty, 0)
	if got := len(tab.levels[0].ids); got != 3 {
		t.Fatalf("lower-reward dominated insert accepted: %d entries", got)
	}

	// Vanilla ignores rewards: availability dominance alone prunes.
	s, tab = newLevel(-1, true)
	s.insert(tab, 0, b, 0.9, -1, ensemble.Empty, 0)
	s.insert(tab, 0, a, 0.1, -1, ensemble.Empty, 0)
	if got := avails(s, tab); len(got) != 1 || !dominates(got[0], a) {
		t.Fatalf("vanilla dominance must ignore rewards: %v", got)
	}

	// Beam eviction drops the worst (lowest-reward) incomparable entry.
	s, tab = newLevel(2, false)
	s.insert(tab, 0, []time.Duration{0, 30}, 0.9, -1, ensemble.Empty, 0)
	s.insert(tab, 0, []time.Duration{10, 20}, 0.5, -1, ensemble.Empty, 0)
	s.insert(tab, 0, []time.Duration{20, 10}, 0.7, -1, ensemble.Empty, 0)
	ids := tab.levels[0].ids
	if len(ids) != 2 {
		t.Fatalf("beam limit not enforced: %d entries", len(ids))
	}
	for _, id := range ids {
		if s.entries[id].reward == 0.5 {
			t.Fatal("beam eviction kept the worst entry")
		}
	}

	if !dominates(a, b) || dominates(b, a) || dominates(a, c) {
		t.Error("dominates() misbehaves")
	}
}

func TestEmptyQueryList(t *testing.T) {
	for _, s := range []Scheduler{&DP{}, &Greedy{Order: EDF}, &Exhaustive{}} {
		plan := s.Schedule(0, nil, SingleReplica([]time.Duration{0}), []time.Duration{10 * ms}, powRewarder{})
		if len(plan.Assignments) != 0 || plan.TotalReward != 0 {
			t.Errorf("%s: non-empty plan for no queries", s.Name())
		}
	}
}

func TestDPWindowCap(t *testing.T) {
	d := &DP{Delta: 0.05, MaxWindow: 2}
	queries := make([]QueryInfo, 5)
	for i := range queries {
		queries[i] = QueryInfo{ID: i + 1, Deadline: 500 * ms, Score: 0.3}
	}
	plan := d.Schedule(0, queries, SingleReplica([]time.Duration{0, 0}), []time.Duration{50 * ms, 50 * ms}, powRewarder{})
	assigned := 0
	for _, s := range plan.Assignments {
		if s != ensemble.Empty {
			assigned++
		}
	}
	if assigned > 2 {
		t.Errorf("window cap violated: %d assignments", assigned)
	}
}

// TestDPTruncatedWindowPlansSingles pins the window rule on an idle fleet
// with loose deadlines, where every query could take the full ensemble:
// handed window+1 queries, the DP gives the window one model each and
// leaves the query behind it unassigned; handed the window alone, it
// still grants more than one model.
func TestDPTruncatedWindowPlansSingles(t *testing.T) {
	const window = 6
	queries := make([]QueryInfo, window+1)
	for i := range queries {
		queries[i] = QueryInfo{ID: i + 1, Deadline: time.Duration(10+i) * time.Second, Score: 0.3}
	}
	avail := SingleReplica([]time.Duration{0, 0, 0})
	exec := []time.Duration{20 * ms, 30 * ms, 40 * ms}
	r := rootRewarder{m: 3}
	d := &DP{Delta: 0.05, MaxWindow: window}

	deep := d.Schedule(0, queries, avail, exec, r).Clone()
	for _, q := range queries[:window] {
		if got := deep.Subset(q.ID); got.Size() != 1 {
			t.Errorf("truncated window: query %d got %v, want one model", q.ID, got)
		}
	}
	if got := deep.Subset(queries[window].ID); got != ensemble.Empty {
		t.Errorf("query behind the window got %v, want it left for the next call", got)
	}

	full := d.Schedule(0, queries[:window], avail, exec, r)
	multi := false
	for _, q := range queries[:window] {
		got := full.Subset(q.ID)
		if got == ensemble.Empty {
			t.Errorf("full window: query %d unassigned on an idle fleet", q.ID)
		}
		multi = multi || got.Size() > 1
	}
	if !multi {
		t.Error("a buffer that fits the window got only single models; the rule must not engage")
	}
}

func TestDPBusyModelsDelayStart(t *testing.T) {
	// Model 0 is busy until t=90; a 100ms deadline can only be met by
	// model 1.
	d := &DP{Delta: 0.01}
	queries := []QueryInfo{{ID: 1, Deadline: 100 * ms, Score: 0.3}}
	avail := []time.Duration{90 * ms, 0}
	exec := []time.Duration{20 * ms, 50 * ms}
	plan := d.Schedule(0, queries, SingleReplica(avail), exec, powRewarder{})
	if got := plan.Subset(1); got != ensemble.Single(1) {
		t.Errorf("got %v, want {1}", got)
	}
}

func TestEDFOrderIsStable(t *testing.T) {
	queries := []QueryInfo{
		{ID: 3, Deadline: 100 * ms, Arrival: 5 * ms},
		{ID: 1, Deadline: 100 * ms, Arrival: 5 * ms},
		{ID: 2, Deadline: 50 * ms},
	}
	order := edfOrder(queries)
	if queries[order[0]].ID != 2 {
		t.Error("earliest deadline not first")
	}
	if queries[order[1]].ID != 1 || queries[order[2]].ID != 3 {
		t.Error("ties not broken by ID")
	}
}

func TestExhaustiveGuard(t *testing.T) {
	e := &Exhaustive{MaxQueries: 2}
	queries := make([]QueryInfo, 3)
	defer func() {
		if recover() == nil {
			t.Error("expected panic over MaxQueries")
		}
	}()
	e.Schedule(0, queries, SingleReplica([]time.Duration{0}), []time.Duration{ms}, powRewarder{})
}

func TestVanillaMatchesPaperTradeoff(t *testing.T) {
	// Vanilla Alg. 1 at coarse delta must pick strictly worse plans than
	// at fine delta on instances whose reward differences fall below the
	// coarse step; the refined (default) DP is immune.
	r := rootRewarder{m: 3}
	queries := []QueryInfo{
		{ID: 1, Deadline: 400 * ms, Score: 0.3},
		{ID: 2, Deadline: 400 * ms, Score: 0.3},
	}
	avail := []time.Duration{0, 0, 0}
	exec := []time.Duration{50 * ms, 60 * ms, 70 * ms}
	fine := (&DP{Delta: 0.001, Vanilla: true}).Schedule(0, queries, SingleReplica(avail), exec, r)
	coarse := (&DP{Delta: 0.25, Vanilla: true}).Schedule(0, queries, SingleReplica(avail), exec, r)
	refined := (&DP{Delta: 0.25}).Schedule(0, queries, SingleReplica(avail), exec, r)
	if coarse.TotalReward > fine.TotalReward+1e-9 {
		t.Errorf("coarse vanilla (%v) cannot beat fine vanilla (%v)", coarse.TotalReward, fine.TotalReward)
	}
	if refined.TotalReward < coarse.TotalReward-1e-9 {
		t.Errorf("refined coarse DP (%v) should not trail vanilla coarse (%v)",
			refined.TotalReward, coarse.TotalReward)
	}
}

// TestTheorems1And2EDFFeasibility property-checks Theorems 1+2: for any
// fixed task assignment, if SOME arbitrary per-model processing order
// meets every query's deadline, then the consistent EDF order also meets
// every deadline (Theorem 1 licenses restricting to consistent orders;
// Theorem 2 says EDF is the optimal consistent order when feasible).
func TestTheorems1And2EDFFeasibility(t *testing.T) {
	checked := 0
	f := func(seed uint64) bool {
		src := rng.New(seed)
		n := 2 + src.Intn(4)
		m := 2 + src.Intn(2)
		queries := make([]QueryInfo, n)
		for i := range queries {
			queries[i] = QueryInfo{
				ID:       i,
				Deadline: time.Duration(120+src.Intn(400)) * ms,
				Score:    src.Float64(),
			}
		}
		exec := make([]time.Duration, m)
		for k := range exec {
			exec[k] = time.Duration(20+src.Intn(60)) * ms
		}
		subsets := make([]ensemble.Subset, n)
		for i := range subsets {
			subsets[i] = ensemble.Subset(1 + src.Intn(int(ensemble.Full(m))))
		}
		completionsUnder := func(orderOf func(k int, tasks []int)) []time.Duration {
			done := make([]time.Duration, n)
			for k := 0; k < m; k++ {
				var tasks []int
				for i, sub := range subsets {
					if sub.Contains(k) {
						tasks = append(tasks, i)
					}
				}
				orderOf(k, tasks)
				var busy time.Duration
				for _, i := range tasks {
					busy += exec[k]
					if busy > done[i] {
						done[i] = busy
					}
				}
			}
			return done
		}
		meets := func(done []time.Duration) bool {
			for i, d := range done {
				if d > queries[i].Deadline {
					return false
				}
			}
			return true
		}
		arbitrary := completionsUnder(func(k int, tasks []int) {
			src.Shuffle(len(tasks), func(a, b int) { tasks[a], tasks[b] = tasks[b], tasks[a] })
		})
		if !meets(arbitrary) {
			return true // vacuous: no feasible witness
		}
		checked++
		order := edfOrder(queries)
		pos := make([]int, n)
		for p, qi := range order {
			pos[qi] = p
		}
		edf := completionsUnder(func(k int, tasks []int) {
			sort.Slice(tasks, func(a, b int) bool { return pos[tasks[a]] < pos[tasks[b]] })
		})
		return meets(edf)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	if checked < 20 {
		t.Errorf("only %d non-vacuous cases; weaken the instance generator", checked)
	}
}
