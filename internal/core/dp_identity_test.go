package core

import (
	"slices"
	"sort"
	"testing"
	"time"

	"schemble/internal/ensemble"
	"schemble/internal/rng"
)

// This file pins the arena-based DP (and scratch-based Greedy) to the
// frozen pre-arena implementations: every shortcut the hot path takes —
// the level bounds and their incumbent, entry recycling, the Pareto
// short-circuit, the closure-free sorts — must leave the produced plans
// bit-identical.

// samePlan requires exact equality: bitwise TotalReward and identical
// Assignments maps (including explicit Empty entries).
func samePlan(t *testing.T, tag string, got, want Plan) {
	t.Helper()
	if got.TotalReward != want.TotalReward {
		t.Fatalf("%s: TotalReward %v != reference %v", tag, got.TotalReward, want.TotalReward)
	}
	if len(got.Assignments) != len(want.Assignments) {
		t.Fatalf("%s: %d assignments != reference %d (%v vs %v)",
			tag, len(got.Assignments), len(want.Assignments), got.Assignments, want.Assignments)
	}
	for id, s := range want.Assignments {
		gs, ok := got.Assignments[id]
		if !ok || gs != s {
			t.Fatalf("%s: query %d assigned %v, reference %v", tag, id, gs, s)
		}
	}
}

// dpIdentityConfigs are the configuration corners the identity property
// is checked under.
var dpIdentityConfigs = []struct {
	name string
	mk   func() (*DP, *ReferenceDP)
}{
	{"default", func() (*DP, *ReferenceDP) {
		return &DP{Delta: 0.01}, &ReferenceDP{Delta: 0.01}
	}},
	{"vanilla", func() (*DP, *ReferenceDP) {
		return &DP{Delta: 0.01, Vanilla: true}, &ReferenceDP{Delta: 0.01, Vanilla: true}
	}},
	{"noprune", func() (*DP, *ReferenceDP) {
		return &DP{Delta: 0.05, DisablePrune: true}, &ReferenceDP{Delta: 0.05, DisablePrune: true}
	}},
	{"unbounded-frontier", func() (*DP, *ReferenceDP) {
		return &DP{Delta: 0.02, MaxFrontier: -1}, &ReferenceDP{Delta: 0.02, MaxFrontier: -1}
	}},
	{"coarse", func() (*DP, *ReferenceDP) {
		return &DP{Delta: 0.25, MaxWindow: 8}, &ReferenceDP{Delta: 0.25, MaxWindow: 8}
	}},
	{"fine-tight-beam", func() (*DP, *ReferenceDP) {
		return &DP{Delta: 0.002, MaxFrontier: 3}, &ReferenceDP{Delta: 0.002, MaxFrontier: 3}
	}},
}

// TestDPBitIdenticalToReference replays the seeded property instances
// through the arena DP and the frozen reference under every
// configuration corner. One DP instance is reused across all seeds per
// configuration, so the arena-reset path between unrelated instances is
// exercised as hard as the solver itself.
func TestDPBitIdenticalToReference(t *testing.T) {
	for _, cfg := range dpIdentityConfigs {
		d, ref := cfg.mk()
		for seed := uint64(0); seed < propertyCases; seed++ {
			inst := genInstance(seed)
			r := rootRewarder{m: inst.m}
			got := d.Schedule(inst.now, inst.queries, inst.cap, inst.exec, r)
			want := ref.Schedule(inst.now, inst.queries, inst.cap, inst.exec, r)
			samePlan(t, cfg.name+"/seed", got, want)
		}
	}
}

// TestDPIncrementalReuseIdentity drives a single DP instance through an
// evolving queue — repeats, tail arrivals, head departures, clock
// advances, capacity perturbations — and requires every decision to
// match a from-scratch reference solve: consecutive calls on one instance
// equal a fresh one, so nothing the arena keeps across calls (tables,
// entries, slab, bound vectors) leaks into a decision.
func TestDPIncrementalReuseIdentity(t *testing.T) {
	const seeds = 300
	for seed := uint64(0); seed < seeds; seed++ {
		src := rng.New(seed ^ 0x5bf03635)
		inst := genInstance(seed)
		d := &DP{Delta: 0.01}
		ref := &ReferenceDP{Delta: 0.01}
		r := rootRewarder{m: inst.m}
		nextID := 1000
		for step := 0; step < 12; step++ {
			got := d.Schedule(inst.now, inst.queries, inst.cap, inst.exec, r).Clone()
			want := ref.Schedule(inst.now, inst.queries, inst.cap, inst.exec, r)
			samePlan(t, "incremental", got, want)
			switch src.Intn(5) {
			case 0:
				// Identical repeat.
			case 1:
				// Tail arrival: extends the EDF window by one.
				var last time.Duration
				for _, q := range inst.queries {
					if q.Deadline > last {
						last = q.Deadline
					}
				}
				inst.queries = append(inst.queries, QueryInfo{
					ID:       nextID,
					Arrival:  inst.now,
					Deadline: last + time.Duration(1+src.Intn(40))*ms,
					Score:    src.Float64(),
				})
				nextID++
			case 2:
				// Head departure: shifts every window position.
				if len(inst.queries) > 1 {
					head := 0
					for i, q := range inst.queries {
						if edfLess(q, inst.queries[head]) {
							head = i
						}
					}
					inst.queries = append(inst.queries[:head], inst.queries[head+1:]...)
				}
			case 3:
				// Clock advance: changes the flattened base vector.
				inst.now += time.Duration(src.Intn(8)) * ms
			case 4:
				// Capacity perturbation: one replica picks up work.
				k := src.Intn(len(inst.cap))
				if len(inst.cap[k]) > 0 {
					inst.cap[k][src.Intn(len(inst.cap[k]))] += time.Duration(1+src.Intn(30)) * ms
				}
			}
		}
	}
}

// genLiveInstance draws the shape the serve coordinator hands the planner
// under overload, where the level bounds (arena.go: boundFrom) do most of
// their work: a 30-deep buffer the 16-query window truncates, IDs that
// are buffer positions, three models of which exactly one is idle, and
// deadlines tight against capacity — a few already unreachable, most
// reachable on their own, far from all reachable together.
func genLiveInstance(seed uint64) instance {
	src := rng.New(seed ^ 0x6c697665)
	const m, n = 3, 30
	now := time.Duration(1000+src.Intn(1000)) * ms
	inst := instance{
		now:  now,
		m:    m,
		cap:  make(Capacity, m),
		exec: []time.Duration{time.Duration(15+src.Intn(15)) * ms, time.Duration(60+src.Intn(40)) * ms, time.Duration(70+src.Intn(40)) * ms},
	}
	idle := src.Intn(m)
	for k := range inst.cap {
		slots := make([]time.Duration, 1+src.Intn(2))
		for r := range slots {
			slots[r] = now + time.Duration(5+src.Intn(90))*ms
		}
		if k == idle {
			slots[0] = now - time.Duration(src.Intn(5))*ms
		}
		inst.cap[k] = slots
	}
	inst.queries = make([]QueryInfo, n)
	for i := range inst.queries {
		inst.queries[i] = QueryInfo{
			ID:       i,
			Arrival:  now - time.Duration(src.Intn(80))*ms,
			Deadline: now + time.Duration(src.Intn(600)-10)*ms,
			Score:    src.Float64(),
		}
	}
	return inst
}

// edfPrefix returns the n earliest-deadline queries, in EDF order: the
// window a call on all of queries plans.
func edfPrefix(queries []QueryInfo, n int) []QueryInfo {
	var out []QueryInfo
	for _, qi := range edfOrder(queries)[:n] {
		out = append(out, queries[qi])
	}
	return out
}

// edgeRewarder strays just outside [0,1] — above 1 for easy full
// ensembles, below 0 for a single model on a hard query — by less than
// any Delta under test, the range where ReferenceDP's unclamped level
// arithmetic and DP's clamped one still agree, so it remains the oracle.
type edgeRewarder struct{ m int }

func (r edgeRewarder) Reward(score float64, s ensemble.Subset) float64 {
	if s == ensemble.Empty {
		return 0
	}
	if s.Size() == 1 && score > 0.8 {
		return -0.004
	}
	return 1.006 * rootRewarder{m: r.m}.Reward(score, s)
}

// TestDPLevelBoundsIdentity pins the level bounds on live-shaped overload
// instances, where they skip most of the table, in every mode the
// exactness argument covers: refinement on and off, pruning off, beam
// off. Each instance is planned whole, a buffer the window truncates and
// so plans over single models, and as its earliest-deadline queries that
// fill the configuration's window exactly, planned over every subset. One
// DP per configuration is reused across seeds.
func TestDPLevelBoundsIdentity(t *testing.T) {
	configs := []struct {
		name   string
		seeds  uint64
		window int
		mk     func() (*DP, *ReferenceDP)
	}{
		{"default", 10, 16, func() (*DP, *ReferenceDP) {
			return &DP{Delta: 0.01}, &ReferenceDP{Delta: 0.01}
		}},
		{"vanilla", 10, 16, func() (*DP, *ReferenceDP) {
			return &DP{Delta: 0.01, Vanilla: true}, &ReferenceDP{Delta: 0.01, Vanilla: true}
		}},
		{"noprune", 6, 16, func() (*DP, *ReferenceDP) {
			return &DP{Delta: 0.05, DisablePrune: true}, &ReferenceDP{Delta: 0.05, DisablePrune: true}
		}},
		{"unbounded-frontier", 6, 10, func() (*DP, *ReferenceDP) {
			return &DP{Delta: 0.02, MaxFrontier: -1, MaxWindow: 10}, &ReferenceDP{Delta: 0.02, MaxFrontier: -1, MaxWindow: 10}
		}},
	}
	for _, cfg := range configs {
		d, ref := cfg.mk()
		for seed := uint64(0); seed < cfg.seeds; seed++ {
			inst := genLiveInstance(seed)
			for i, queries := range [][]QueryInfo{inst.queries, edfPrefix(inst.queries, cfg.window)} {
				for _, r := range []Rewarder{rootRewarder{m: inst.m}, edgeRewarder{m: inst.m}} {
					got := d.Schedule(inst.now, queries, inst.cap, inst.exec, r)
					if every := len(d.scr.subsets) == len(d.scr.all); every != (i == 1) {
						t.Fatalf("%s seed %d: %d queries planned over every subset = %v, want %v", cfg.name, seed, len(queries), every, i == 1)
					}
					want := ref.Schedule(inst.now, queries, inst.cap, inst.exec, r)
					samePlan(t, cfg.name+"/live", got, want)
				}
			}
		}
	}
}

// genSlackInstance draws the shape behind the live path's slowest calls
// on burst, where the incumbent does its work: a window of queries with
// budgets uniform in 150 ms-1 s from arrival, against three models whose
// replicas each run one task with one more staged behind it. Nearly every
// query can still be placed, so the final top level sits in a narrow band
// under the most the window can add — the band the greedy plan's level
// opens at. Ten queries, not sixteen: the oracle builds every cell, and
// sixteen cost it seconds per instance.
func genSlackInstance(seed uint64) instance {
	src := rng.New(seed ^ 0x736c61636b)
	const m, n = 3, 10
	now := time.Duration(1000+src.Intn(1000)) * ms
	inst := instance{
		now:  now,
		m:    m,
		cap:  make(Capacity, m),
		exec: []time.Duration{time.Duration(15+src.Intn(15)) * ms, time.Duration(60+src.Intn(40)) * ms, time.Duration(70+src.Intn(40)) * ms},
	}
	for k := range inst.cap {
		slots := make([]time.Duration, 1+src.Intn(2))
		for r := range slots {
			slots[r] = now + inst.exec[k] + time.Duration(src.Intn(int(inst.exec[k]/ms)))*ms
		}
		inst.cap[k] = slots
	}
	inst.queries = make([]QueryInfo, n)
	for i := range inst.queries {
		arrival := now - time.Duration(src.Intn(60))*ms
		inst.queries[i] = QueryInfo{
			ID:       i,
			Arrival:  arrival,
			Deadline: arrival + time.Duration(150+src.Intn(851))*ms,
			Score:    src.Float64(),
		}
	}
	return inst
}

// TestDPIncumbentIdentity pins the incumbent bound on slack-shaped
// instances, where it skips most of the table, under every configuration
// corner of the seeded identity test. One DP per corner is reused across
// seeds.
func TestDPIncumbentIdentity(t *testing.T) {
	for _, cfg := range dpIdentityConfigs {
		d, ref := cfg.mk()
		for seed := uint64(0); seed < 4; seed++ {
			inst := genSlackInstance(seed)
			r := rootRewarder{m: inst.m}
			got := d.Schedule(inst.now, inst.queries, inst.cap, inst.exec, r)
			samePlan(t, cfg.name+"/slack", got, ref.Schedule(inst.now, inst.queries, inst.cap, inst.exec, r))
		}
	}
}

// TestDPIncumbentNeverRebuildsWhenExact: without a beam the table keeps
// every level a DP transition path reaches, and the greedy plan is such a
// path, so the incumbent never forces the rebuild. This is what holds the
// incumbent to a plan that is really feasible at its clamped level: one
// that counted a subset past its deadline, or summed unclamped rewards,
// would overshoot the top and rebuild. A buffer deeper than the window is
// also planned as its window alone, so both subset lists are covered.
func TestDPIncumbentNeverRebuildsWhenExact(t *testing.T) {
	const window = 10
	gens := []struct {
		name string
		gen  func(uint64) instance
	}{{"property", genInstance}, {"live", genLiveInstance}, {"slack", genSlackInstance}}
	for _, vanilla := range []bool{false, true} {
		d := &DP{Delta: 0.01, MaxFrontier: -1, MaxWindow: window, Vanilla: vanilla}
		for _, g := range gens {
			for seed := uint64(0); seed < 40; seed++ {
				inst := g.gen(seed)
				lists := [][]QueryInfo{inst.queries}
				if len(inst.queries) > window {
					lists = append(lists, edfPrefix(inst.queries, window))
				}
				for _, queries := range lists {
					for _, r := range []Rewarder{rootRewarder{m: inst.m}, scaledRewarder{scale: 2.5, m: inst.m}} {
						d.Schedule(inst.now, queries, inst.cap, inst.exec, r)
						if d.scr.rebuilds != 0 {
							t.Fatalf("vanilla=%v %s seed %d, %d queries: an exact table fell below the incumbent", vanilla, g.name, seed, len(queries))
						}
					}
				}
			}
		}
	}
}

// subsetRewarder pays a fixed reward per subset, whatever the score.
type subsetRewarder map[ensemble.Subset]float64

func (r subsetRewarder) Reward(_ float64, s ensemble.Subset) float64 { return r[s] }

// fallbackInstance is the smallest instance on which the beam drops the
// greedy plan: two idle models, two queries due after one task time, and
// three subsets on one coarse level. Greedy runs one model per query
// (level 2); a one-entry beam keeps only the highest exact reward on
// level 1, the full ensemble for the first query, which leaves no room for
// the second, so the final top level is 1.
func fallbackInstance() (instance, Rewarder) {
	return instance{
		now: 0,
		m:   2,
		cap: SingleReplica([]time.Duration{0, 0}),
		queries: []QueryInfo{
			{ID: 1, Deadline: 10 * ms},
			{ID: 2, Deadline: 10 * ms},
		},
		exec: []time.Duration{10 * ms, 10 * ms},
	}, subsetRewarder{ensemble.Single(0): 0.30, ensemble.Single(1): 0.45, ensemble.Full(2): 0.49}
}

// TestDPIncumbentFallback forces the rebuild: the incumbent lies above
// the beam's true top, the bounded solve ends with an empty final table,
// and the plan must still be the reference's.
func TestDPIncumbentFallback(t *testing.T) {
	inst, r := fallbackInstance()
	d := &DP{Delta: 0.25, MaxFrontier: 1}
	got := d.Schedule(inst.now, inst.queries, inst.cap, inst.exec, r)
	if d.scr.rebuilds != 1 {
		t.Fatalf("rebuilds = %d, want 1: the instance no longer forces the fallback", d.scr.rebuilds)
	}
	samePlan(t, "fallback", got, (&ReferenceDP{Delta: 0.25, MaxFrontier: 1}).Schedule(inst.now, inst.queries, inst.cap, inst.exec, r))
	if got.TotalReward != 0.49 {
		t.Fatalf("TotalReward = %v, want the beam's 0.49", got.TotalReward)
	}

	// Without the beam the greedy plan survives: no rebuild, both served.
	exact := &DP{Delta: 0.25, MaxFrontier: -1}
	plan := exact.Schedule(inst.now, inst.queries, inst.cap, inst.exec, r)
	if exact.scr.rebuilds != 0 || plan.Subset(1) == ensemble.Empty || plan.Subset(2) == ensemble.Empty {
		t.Fatalf("exact solve: rebuilds %d, plan %v; want 0 and both served", exact.scr.rebuilds, plan.Assignments)
	}
}

// TestDPLevelBoundsOutOfRange covers rewards far outside [0,1], where
// ReferenceDP panics or diverges by design (see its doc): a DP that has
// just solved a different instance must agree with a fresh one, and the
// plan must replay feasibly with a truthful TotalReward. Each instance is
// planned whole (a truncated window, single models) and as its 16-query
// window alone (every subset); both plans replay against that window.
func TestDPLevelBoundsOutOfRange(t *testing.T) {
	for _, scale := range []float64{2.5, -0.5} {
		warm := &DP{Delta: 0.01}
		for seed := uint64(0); seed < 8; seed++ {
			inst := genLiveInstance(seed)
			windowed := inst
			windowed.queries = edfPrefix(inst.queries, 16)
			r := scaledRewarder{scale: scale, m: inst.m}
			for _, queries := range [][]QueryInfo{inst.queries, windowed.queries} {
				got := warm.Schedule(inst.now, queries, inst.cap, inst.exec, r).Clone()
				want := (&DP{Delta: 0.01}).Schedule(inst.now, queries, inst.cap, inst.exec, r)
				samePlan(t, "out-of-range/live", got, want)
				replayFeasible(t, "out-of-range/live", seed, windowed, got, r)
				if scale < 0 && got.TotalReward != 0 {
					t.Fatalf("seed %d: negative rewards must never beat skipping, got %v", seed, got.TotalReward)
				}
			}
		}
	}
}

// countingRewarder counts Reward calls.
type countingRewarder struct {
	Rewarder
	calls int
}

func (c *countingRewarder) Reward(score float64, s ensemble.Subset) float64 {
	c.calls++
	return c.Rewarder.Reward(score, s)
}

// scoreRewarder pays the query's score for any non-empty subset.
type scoreRewarder struct{}

func (scoreRewarder) Reward(score float64, s ensemble.Subset) float64 {
	if s == ensemble.Empty {
		return 0
	}
	return score
}

// TestDPLevelBoundsReuseCutsOnRicherSuffix is the smallest instance on
// which floors kept from a previous call pick the wrong plan: one model
// with room for one task before the shared deadline. Solving {A, B} leaves
// only the cell that ran A above the floor; when the far more valuable T
// arrives behind them, the winning plan skips both — a cell below that
// floor. A warm instance must plan T exactly as a fresh one does.
func TestDPLevelBoundsReuseCutsOnRicherSuffix(t *testing.T) {
	queries := []QueryInfo{
		{ID: 0, Arrival: 0, Deadline: 10 * ms, Score: 0.2},
		{ID: 1, Arrival: 1, Deadline: 10 * ms, Score: 0.1},
	}
	avail := SingleReplica([]time.Duration{0})
	exec := []time.Duration{10 * ms}
	d := &DP{Delta: 0.01}
	ref := &ReferenceDP{Delta: 0.01}
	samePlan(t, "before", d.Schedule(0, queries, avail, exec, scoreRewarder{}).Clone(),
		ref.Schedule(0, queries, avail, exec, scoreRewarder{}))
	queries = append(queries, QueryInfo{ID: 2, Arrival: 2, Deadline: 10 * ms, Score: 1})
	got := d.Schedule(0, queries, avail, exec, scoreRewarder{})
	samePlan(t, "after", got, ref.Schedule(0, queries, avail, exec, scoreRewarder{}))
	if got.Subset(2) == ensemble.Empty {
		t.Fatalf("the valuable tail query was skipped: %v", got.Assignments)
	}
}

// TestDPLevelBoundsReuseIdentity holds consecutive calls on one instance
// to a fresh solve across the queue edits that move the bounds: a tail
// arrival that raises what the suffix can add (lowering every floor), a
// departure mid-window, a verbatim repeat, a shrinking suffix and a
// hopeless tail. Clock and capacity stay fixed, so only the queue moves.
// Every call evaluates each (query, subset) reward at most once, whatever
// the incumbent and a rebuild do.
func TestDPLevelBoundsReuseIdentity(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		inst := genLiveInstance(seed)
		order := edfOrder(inst.queries)
		var queries []QueryInfo
		for _, qi := range order[:12] {
			queries = append(queries, inst.queries[qi])
		}
		last := queries[len(queries)-1].Deadline
		d := &DP{Delta: 0.01}
		r := &countingRewarder{Rewarder: rootRewarder{m: inst.m}}
		nsub := len(ensemble.AllSubsets(inst.m))
		check := func(tag string) {
			t.Helper()
			r.calls = 0
			got := d.Schedule(inst.now, queries, inst.cap, inst.exec, r).Clone()
			if r.calls > len(queries)*nsub {
				t.Fatalf("seed %d %s: %d Reward calls, want at most %d", seed, tag, r.calls, len(queries)*nsub)
			}
			samePlan(t, tag, got, (&DP{Delta: 0.01}).Schedule(inst.now, queries, inst.cap, inst.exec, r))
			samePlan(t, tag, got, (&ReferenceDP{Delta: 0.01}).Schedule(inst.now, queries, inst.cap, inst.exec, r))
		}
		check("first")
		// An easy tail query due with the last one: plans that keep
		// capacity free can now win.
		queries = append(queries, QueryInfo{ID: 100, Arrival: inst.now, Deadline: last, Score: 0.01})
		check("tail appended")
		queries = append(queries[:3], queries[4:]...)
		check("prefix removed")
		check("verbatim repeat")
		queries = queries[:len(queries)-1]
		check("tail removed")
		queries = append(queries, QueryInfo{ID: 101, Arrival: inst.now, Deadline: last + ms, Score: 0.99})
		check("hopeless tail")
	}
}

// greedyReferenceSchedule is the pre-scratch Greedy.Schedule, kept
// verbatim as the oracle for the scratch-based rewrite.
func greedyReferenceSchedule(order Order, now time.Duration, queries []QueryInfo, avail Capacity, exec []time.Duration, r Rewarder) Plan {
	plan := Plan{Assignments: make(map[int]ensemble.Subset, len(queries))}
	if len(queries) == 0 {
		return plan
	}
	idx := make([]int, len(queries))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		qa, qb := queries[idx[a]], queries[idx[b]]
		switch order {
		case FIFO:
			if qa.Arrival != qb.Arrival {
				return qa.Arrival < qb.Arrival
			}
		case SJF:
			if qa.Score != qb.Score {
				return qa.Score < qb.Score
			}
		default: // EDF
			if qa.Deadline != qb.Deadline {
				return qa.Deadline < qb.Deadline
			}
		}
		return qa.ID < qb.ID
	})
	cur, lay := flatten(now, avail)
	scratch := make([]time.Duration, len(cur))
	subsets := ensemble.AllSubsets(avail.M())
	for _, qi := range idx {
		q := queries[qi]
		best := ensemble.Empty
		bestR := 0.0
		var bestAvail []time.Duration
		for _, s := range subsets {
			done := lay.completion(cur, exec, s, scratch)
			if done > q.Deadline {
				continue
			}
			rw := r.Reward(q.Score, s)
			if rw > bestR || (rw == bestR && best != ensemble.Empty && s.Size() < best.Size()) {
				best, bestR = s, rw
				bestAvail = append(bestAvail[:0], scratch...)
			}
		}
		plan.Assignments[q.ID] = best
		if best != ensemble.Empty {
			copy(cur, bestAvail)
			plan.TotalReward += bestR
		}
	}
	return plan
}

// TestGreedyBitIdenticalToReference pins the scratch-based Greedy to the
// frozen allocating implementation, one instance reused across seeds,
// all three orders.
func TestGreedyBitIdenticalToReference(t *testing.T) {
	for _, order := range []Order{EDF, FIFO, SJF} {
		g := &Greedy{Order: order}
		for seed := uint64(0); seed < propertyCases; seed++ {
			inst := genInstance(seed)
			r := rootRewarder{m: inst.m}
			got := g.Schedule(inst.now, inst.queries, inst.cap, inst.exec, r)
			want := greedyReferenceSchedule(order, inst.now, inst.queries, inst.cap, inst.exec, r)
			samePlan(t, "greedy+"+order.String(), got, want)
		}
	}
}

// TestDPScheduleSteadyStateZeroAlloc is the arena's regression guard:
// after warmup, Schedule must not allocate — neither on identical
// consecutive inputs nor when alternating between two instances, nor with
// sunk models, nor on a truncated window, nor when a call falls back to the
// rebuild.
func TestDPScheduleSteadyStateZeroAlloc(t *testing.T) {
	instA := genInstance(7)
	instB := genInstance(8)
	for seed := uint64(9); instB.m != instA.m; seed++ {
		// The subset enumeration is cached per model count; alternate
		// between same-m instances so the cache is exercised, not thrashed.
		instB = genInstance(seed)
	}
	var rA Rewarder = rootRewarder{m: instA.m}
	var rB Rewarder = rootRewarder{m: instB.m}

	d := &DP{}
	for i := 0; i < 3; i++ {
		d.Schedule(instA.now, instA.queries, instA.cap, instA.exec, rA)
	}
	if n := testing.AllocsPerRun(200, func() {
		d.Schedule(instA.now, instA.queries, instA.cap, instA.exec, rA)
	}); n != 0 {
		t.Errorf("DP.Schedule steady state (repeat): %v allocs/op, want 0", n)
	}

	d2 := &DP{}
	for i := 0; i < 3; i++ {
		d2.Schedule(instA.now, instA.queries, instA.cap, instA.exec, rA)
		d2.Schedule(instB.now, instB.queries, instB.cap, instB.exec, rB)
	}
	if n := testing.AllocsPerRun(200, func() {
		d2.Schedule(instA.now, instA.queries, instA.cap, instA.exec, rA)
		d2.Schedule(instB.now, instB.queries, instB.cap, instB.exec, rB)
	}); n != 0 {
		t.Errorf("DP.Schedule steady state (alternating re-solve): %v allocs/op, want 0", n)
	}

	sunk := withSunk(instA, 7)
	if !slices.ContainsFunc(sunk.queries, func(q QueryInfo) bool { return q.Sunk != ensemble.Empty }) {
		t.Fatal("the sunk instance has no sunk model")
	}
	ds := &DP{}
	for i := 0; i < 3; i++ {
		ds.Schedule(sunk.now, sunk.queries, sunk.cap, sunk.exec, rA)
	}
	if n := testing.AllocsPerRun(200, func() {
		ds.Schedule(sunk.now, sunk.queries, sunk.cap, sunk.exec, rA)
	}); n != 0 {
		t.Errorf("DP.Schedule steady state (sunk models): %v allocs/op, want 0", n)
	}

	// A buffer deeper than the window plans over the singleton list;
	// alternating with a call that fits the window switches lists.
	deep := genLiveInstance(3)
	fits := deep
	fits.queries = edfPrefix(deep.queries, 16)
	rDeep := rootRewarder{m: deep.m}
	d5 := &DP{}
	for i := 0; i < 3; i++ {
		d5.Schedule(deep.now, deep.queries, deep.cap, deep.exec, rDeep)
		d5.Schedule(fits.now, fits.queries, fits.cap, fits.exec, rDeep)
	}
	if n := testing.AllocsPerRun(200, func() {
		d5.Schedule(deep.now, deep.queries, deep.cap, deep.exec, rDeep)
		d5.Schedule(fits.now, fits.queries, fits.cap, fits.exec, rDeep)
	}); n != 0 {
		t.Errorf("DP.Schedule steady state (truncated window): %v allocs/op, want 0", n)
	}

	fb, rFB := fallbackInstance()
	d4 := &DP{Delta: 0.25, MaxFrontier: 1}
	for i := 0; i < 3; i++ {
		d4.Schedule(fb.now, fb.queries, fb.cap, fb.exec, rFB)
	}
	if n := testing.AllocsPerRun(200, func() {
		d4.Schedule(fb.now, fb.queries, fb.cap, fb.exec, rFB)
	}); n != 0 {
		t.Errorf("DP.Schedule steady state (rebuild): %v allocs/op, want 0", n)
	}

	g := &Greedy{Order: EDF}
	for i := 0; i < 3; i++ {
		g.Schedule(instA.now, instA.queries, instA.cap, instA.exec, rA)
		g.Schedule(instB.now, instB.queries, instB.cap, instB.exec, rB)
	}
	if n := testing.AllocsPerRun(200, func() {
		g.Schedule(instA.now, instA.queries, instA.cap, instA.exec, rA)
		g.Schedule(instB.now, instB.queries, instB.cap, instB.exec, rB)
	}); n != 0 {
		t.Errorf("Greedy.Schedule steady state: %v allocs/op, want 0", n)
	}

	// The runtimes refresh their retained exec slice in place before every
	// planning round; the refresh + solve round trip must stay
	// allocation-free too (the adapt engine's ExecInto has its own
	// zero-alloc test).
	exec := make([]time.Duration, len(instA.exec))
	d3 := &DP{}
	for i := 0; i < 3; i++ {
		copy(exec, instA.exec)
		d3.Schedule(instA.now, instA.queries, instA.cap, exec, rA)
	}
	if n := testing.AllocsPerRun(200, func() {
		copy(exec, instA.exec)
		d3.Schedule(instA.now, instA.queries, instA.cap, exec, rA)
	}); n != 0 {
		t.Errorf("exec refresh + DP.Schedule steady state: %v allocs/op, want 0", n)
	}
}

// scaledRewarder returns rewards outside [0,1]: scale 2.5 exceeds the
// level table a reward ≤ 1 sizes, scale -0.5 goes negative.
type scaledRewarder struct {
	scale float64
	m     int
}

func (r scaledRewarder) Reward(score float64, s ensemble.Subset) float64 {
	if s == ensemble.Empty {
		return 0
	}
	return r.scale * float64(s.Size()) / float64(r.m)
}

// TestDPOutOfRangeRewarder is the regression test for the historical
// index-out-of-range panic: a Rewarder exceeding 1.0 indexed past the
// quantized level table (ReferenceDP preserves that panic; see its doc).
// DP clamps the quantized level while carrying the exact reward, so the
// plan stays feasible and TotalReward truthful.
func TestDPOutOfRangeRewarder(t *testing.T) {
	for _, scale := range []float64{2.5, -0.5} {
		for seed := uint64(0); seed < 50; seed++ {
			inst := genInstance(seed)
			r := scaledRewarder{scale: scale, m: inst.m}
			d := &DP{Delta: 0.01}
			plan := d.Schedule(inst.now, inst.queries, inst.cap, inst.exec, r)
			replayFeasible(t, "dp/out-of-range", seed, inst, plan, r)
			if scale < 0 && plan.TotalReward != 0 {
				t.Fatalf("seed %d: negative rewards must never beat skipping, got %v",
					seed, plan.TotalReward)
			}
			assigned := false
			for _, s := range plan.Assignments {
				assigned = assigned || s != ensemble.Empty
			}
			if scale > 0 && assigned && plan.TotalReward <= 0 {
				t.Fatalf("seed %d: out-of-range rewards still describe useful work, got %v",
					seed, plan.TotalReward)
			}
		}
	}
}

// TestZeroReplicaConvention pins the documented convention: a model with
// zero declared replicas is planned exactly as one idle replica — the
// "missing means one" rule serve.Config.Replicas uses.
func TestZeroReplicaConvention(t *testing.T) {
	now := 10 * ms
	zero := Capacity{{}, {15 * ms, 5 * ms}}
	one := Capacity{{now}, {15 * ms, 5 * ms}}

	fz, lz := flatten(now, zero)
	fo, lo := flatten(now, one)
	if !slices.Equal(fz, fo) || !slices.Equal(lz.off, lo.off) {
		t.Fatalf("flatten(zero-replica) = %v %v, want %v %v", fz, lz.off, fo, lo.off)
	}

	queries := []QueryInfo{
		{ID: 1, Arrival: now, Deadline: now + 60*ms, Score: 0.4},
		{ID: 2, Arrival: now, Deadline: now + 90*ms, Score: 0.8},
	}
	exec := []time.Duration{20 * ms, 30 * ms}
	r := rootRewarder{m: 2}
	for _, s := range []Scheduler{&DP{Delta: 0.01}, &Greedy{Order: EDF}} {
		got := s.Schedule(now, queries, zero, exec, r).Clone()
		want := s.Schedule(now, queries, one, exec, r)
		samePlan(t, s.Name()+"/zero-replica", got, want)
	}
}
