package core

import (
	"math"
	"slices"
	"testing"
	"time"

	"schemble/internal/ensemble"
	"schemble/internal/rng"
)

// propertyCases is the number of deterministic seeded instances each
// property below is checked against. The generator is seed-indexed (not
// testing/quick), so a failure reproduces exactly by seed.
const propertyCases = 1000

// instance is one randomly generated scheduling subproblem, replica pools
// included.
type instance struct {
	now     time.Duration
	queries []QueryInfo
	cap     Capacity
	exec    []time.Duration
	m       int
}

// genInstance draws a small random instance: 2–3 models with 1–3 replicas
// each, 1–5 queries, availabilities and deadlines in the regime the
// serving runtime actually produces (some replicas idle, some backlogged,
// some deadlines tight enough to force skips).
func genInstance(seed uint64) instance {
	src := rng.New(seed)
	m := 2 + src.Intn(2)
	n := 1 + src.Intn(5)
	inst := instance{
		now:  time.Duration(src.Intn(20)) * ms,
		m:    m,
		cap:  make(Capacity, m),
		exec: make([]time.Duration, m),
	}
	for k := 0; k < m; k++ {
		slots := make([]time.Duration, 1+src.Intn(3))
		for r := range slots {
			slots[r] = time.Duration(src.Intn(60)) * ms
		}
		inst.cap[k] = slots
		inst.exec[k] = time.Duration(10+src.Intn(80)) * ms
	}
	inst.queries = make([]QueryInfo, n)
	for i := range inst.queries {
		inst.queries[i] = QueryInfo{
			ID:       i + 1,
			Arrival:  time.Duration(src.Intn(50)) * ms,
			Deadline: time.Duration(40+src.Intn(280)) * ms,
			Score:    src.Float64(),
		}
	}
	return inst
}

// withSunk gives each query of inst a random sunk mask, empty one time in
// three, finished by a random instant up to 60 ms past now.
func withSunk(inst instance, seed uint64) instance {
	src := rng.New(seed ^ 0x5bd1e995)
	inst.queries = append([]QueryInfo(nil), inst.queries...)
	for i := range inst.queries {
		if src.Intn(3) == 0 {
			continue
		}
		inst.queries[i].Sunk = ensemble.Subset(1 + src.Intn(1<<inst.m-1))
		inst.queries[i].SunkBy = inst.now + time.Duration(src.Intn(60))*ms
	}
	return inst
}

// replayFeasible re-simulates a plan in EDF order against the instance's
// replica capacity and reports whether every assigned query meets its
// deadline, its sunk models taking no slot; it also cross-checks that the
// plan's claimed TotalReward is the exact sum of its assignments' rewards.
func replayFeasible(t *testing.T, tag string, seed uint64, inst instance, plan Plan, r Rewarder) {
	t.Helper()
	cur, lay := flatten(inst.now, inst.cap)
	scratch := make([]time.Duration, len(cur))
	sum := 0.0
	for _, qi := range edfOrder(inst.queries) {
		q := &inst.queries[qi]
		s := plan.Subset(q.ID)
		if s == ensemble.Empty {
			continue
		}
		done := lay.completionOf(q, cur, inst.exec, s, scratch)
		if done > q.Deadline {
			t.Fatalf("seed %d %s: query %d finishes %v after deadline %v",
				seed, tag, q.ID, done, q.Deadline)
		}
		copy(cur, scratch)
		sum += r.Reward(q.Score, s)
	}
	if math.Abs(sum-plan.TotalReward) > 1e-9 {
		t.Fatalf("seed %d %s: TotalReward %v but assignments sum to %v",
			seed, tag, plan.TotalReward, sum)
	}
}

// propertySchedulers builds the scheduler set every instance is run
// through. The DP variant disables the beam limit so Theorem 3's
// approximation bound applies without heuristic slack.
func propertySchedulers(inst instance, epsilon float64) (*DP, []*Greedy) {
	n := len(inst.queries)
	d := &DP{Delta: epsilon / float64(inst.m*n), MaxFrontier: -1}
	gs := []*Greedy{{Order: EDF}, {Order: FIFO}, {Order: SJF}}
	return d, gs
}

// TestPropertyDPBeatsGreedy: the DP plan's reward is never worse than any
// greedy order's, up to Theorem 3's quantization loss — greedy is a
// feasible solution of the same subproblem, so (1-epsilon)-optimality of
// the DP lower-bounds it against every greedy order at once.
func TestPropertyDPBeatsGreedy(t *testing.T) {
	const epsilon = 0.05
	for seed := uint64(0); seed < propertyCases; seed++ {
		inst := genInstance(seed)
		r := rootRewarder{m: inst.m}
		d, gs := propertySchedulers(inst, epsilon)
		dp := d.Schedule(inst.now, inst.queries, inst.cap, inst.exec, r)
		for _, g := range gs {
			gp := g.Schedule(inst.now, inst.queries, inst.cap, inst.exec, r)
			if dp.TotalReward < (1-epsilon)*gp.TotalReward-1e-9 {
				t.Fatalf("seed %d: dp reward %v < (1-eps) x %s reward %v",
					seed, dp.TotalReward, g.Name(), gp.TotalReward)
			}
		}
	}
}

// TestPropertyPlansFeasible: every scheduler's plan — DP, all greedy
// orders, and the exhaustive optimum — replays feasibly in EDF order on
// replica capacity, and reports its exact achieved reward.
func TestPropertyPlansFeasible(t *testing.T) {
	exh := &Exhaustive{}
	for seed := uint64(0); seed < propertyCases; seed++ {
		inst := genInstance(seed)
		r := rootRewarder{m: inst.m}
		d, gs := propertySchedulers(inst, 0.05)
		replayFeasible(t, "dp", seed, inst,
			d.Schedule(inst.now, inst.queries, inst.cap, inst.exec, r), r)
		for _, g := range gs {
			replayFeasible(t, g.Name(), seed, inst,
				g.Schedule(inst.now, inst.queries, inst.cap, inst.exec, r), r)
		}
		replayFeasible(t, "exhaustive", seed, inst,
			exh.Schedule(inst.now, inst.queries, inst.cap, inst.exec, r), r)
	}
}

// TestPropertyBlockedModelsExcluded: models whose every replica is pushed
// past any feasible deadline (how the runtime encodes open breakers and
// crash windows) never appear in any scheduler's assignments.
func TestPropertyBlockedModelsExcluded(t *testing.T) {
	for seed := uint64(0); seed < propertyCases; seed++ {
		inst := genInstance(seed)
		src := rng.New(seed ^ 0x9e3779b97f4a7c15)
		blocked := ensemble.Empty
		for k := 0; k < inst.m; k++ {
			if src.Bool(0.4) {
				blocked = blocked.With(k)
			}
		}
		if blocked == ensemble.Empty {
			blocked = ensemble.Single(src.Intn(inst.m))
		}
		for _, k := range blocked.Models() {
			for i := range inst.cap[k] {
				inst.cap[k][i] = inst.now + 10*time.Minute
			}
		}
		r := rootRewarder{m: inst.m}
		d, gs := propertySchedulers(inst, 0.05)
		check := func(tag string, plan Plan) {
			for _, q := range inst.queries {
				if s := plan.Subset(q.ID); s&blocked != ensemble.Empty {
					t.Fatalf("seed %d %s: query %d assigned blocked models %v",
						seed, tag, q.ID, (s & blocked).Models())
				}
			}
		}
		check("dp", d.Schedule(inst.now, inst.queries, inst.cap, inst.exec, r))
		for _, g := range gs {
			check(g.Name(), g.Schedule(inst.now, inst.queries, inst.cap, inst.exec, r))
		}
	}
}

// TestPropertySunkTasks: with random sunk masks (a query whose task already
// runs on some models), every scheduler's plan replays feasibly under the
// sunk rule, the DP stays within (1-epsilon) of the exhaustive optimum, and
// a subset inside a query's sunk models takes no replica slot and completes
// at SunkBy.
func TestPropertySunkTasks(t *testing.T) {
	const epsilon = 0.05
	exh := &Exhaustive{}
	for seed := uint64(0); seed < propertyCases; seed++ {
		inst := withSunk(genInstance(seed), seed)
		r := rootRewarder{m: inst.m}
		d, gs := propertySchedulers(inst, epsilon)
		dp := d.Schedule(inst.now, inst.queries, inst.cap, inst.exec, r)
		opt := exh.Schedule(inst.now, inst.queries, inst.cap, inst.exec, r)
		if dp.TotalReward < (1-epsilon)*opt.TotalReward-1e-9 {
			t.Fatalf("seed %d: dp reward %v < (1-eps) x optimum %v", seed, dp.TotalReward, opt.TotalReward)
		}
		replayFeasible(t, "dp", seed, inst, dp, r)
		replayFeasible(t, "exhaustive", seed, inst, opt, r)
		for _, g := range gs {
			replayFeasible(t, g.Name(), seed, inst, g.Schedule(inst.now, inst.queries, inst.cap, inst.exec, r), r)
		}

		base, lay := flatten(inst.now, inst.cap)
		dst := make([]time.Duration, len(base))
		for _, q := range inst.queries {
			for s := q.Sunk; s != ensemble.Empty; s = (s - 1) & q.Sunk {
				if done := lay.completionOf(&q, base, inst.exec, s, dst); done != q.SunkBy || !slices.Equal(dst, base) {
					t.Fatalf("seed %d: query %d on sunk %v done %v with slots %v, want %v and %v untouched",
						seed, q.ID, s.Models(), done, dst, q.SunkBy, base)
				}
			}
		}
	}
}

// addReplica returns a copy of cap with one extra replica, idle at now,
// appended to model k's pool.
func addReplica(c Capacity, k int, now time.Duration) Capacity {
	out := make(Capacity, len(c))
	for i, slots := range c {
		out[i] = append([]time.Duration(nil), slots...)
	}
	out[k] = append(out[k], now)
	return out
}

// TestPropertyReplicaMonotonicity: growing any model's pool by one idle
// replica never decreases achievable reward. The exhaustive optimum is
// strictly monotone (the old feasible set embeds in the new one); the DP
// is monotone up to its quantization loss.
func TestPropertyReplicaMonotonicity(t *testing.T) {
	const epsilon = 0.05
	exh := &Exhaustive{}
	for seed := uint64(0); seed < propertyCases; seed++ {
		inst := genInstance(seed)
		r := rootRewarder{m: inst.m}
		k := int(seed) % inst.m
		grown := addReplica(inst.cap, k, inst.now)

		baseReward := exh.Schedule(inst.now, inst.queries, inst.cap, inst.exec, r).TotalReward
		more := exh.Schedule(inst.now, inst.queries, grown, inst.exec, r)
		if more.TotalReward < baseReward-1e-9 {
			t.Fatalf("seed %d: exhaustive reward dropped %v -> %v after adding a replica to model %d",
				seed, baseReward, more.TotalReward, k)
		}

		d, _ := propertySchedulers(inst, epsilon)
		dBaseReward := d.Schedule(inst.now, inst.queries, inst.cap, inst.exec, r).TotalReward
		dMore := d.Schedule(inst.now, inst.queries, grown, inst.exec, r)
		if dMore.TotalReward < (1-epsilon)*dBaseReward-1e-9 {
			t.Fatalf("seed %d: dp reward dropped %v -> %v (beyond quantization) after adding a replica to model %d",
				seed, dBaseReward, dMore.TotalReward, k)
		}
	}
}

// TestPropertySingleReplicaCapacityDegenerates: flatten/completion on a
// one-replica-per-model Capacity behave exactly like the scalar
// availability math the schedulers used before pools — the compatibility
// contract the serve runtime's bit-identical twin test leans on, checked
// here at the unit level.
func TestPropertySingleReplicaCapacityDegenerates(t *testing.T) {
	for seed := uint64(0); seed < propertyCases; seed++ {
		src := rng.New(seed)
		m := 1 + src.Intn(4)
		now := time.Duration(src.Intn(30)) * ms
		avail := make([]time.Duration, m)
		exec := make([]time.Duration, m)
		for k := range avail {
			avail[k] = time.Duration(src.Intn(80)) * ms
			exec[k] = time.Duration(5+src.Intn(60)) * ms
		}
		flat, lay := flatten(now, SingleReplica(avail))
		if len(flat) != m {
			t.Fatalf("seed %d: flat has %d slots for %d single-replica models", seed, len(flat), m)
		}
		for k, a := range avail {
			want := a
			if want < now {
				want = now
			}
			if flat[k] != want {
				t.Fatalf("seed %d: slot %d = %v, want clamp(%v)", seed, k, flat[k], a)
			}
		}
		var s ensemble.Subset
		for k := 0; k < m; k++ {
			if src.Bool(0.6) {
				s = s.With(k)
			}
		}
		if s == ensemble.Empty {
			s = ensemble.Single(src.Intn(m))
		}
		dst := make([]time.Duration, m)
		done := lay.completion(flat, exec, s, dst)
		var want time.Duration
		for k := 0; k < m; k++ {
			if !s.Contains(k) {
				if dst[k] != flat[k] {
					t.Fatalf("seed %d: untouched model %d moved %v -> %v", seed, k, flat[k], dst[k])
				}
				continue
			}
			fin := flat[k] + exec[k]
			if dst[k] != fin {
				t.Fatalf("seed %d: model %d finish %v, want %v", seed, k, dst[k], fin)
			}
			if fin > want {
				want = fin
			}
		}
		if done != want {
			t.Fatalf("seed %d: completion %v, want %v", seed, done, want)
		}
	}
}
