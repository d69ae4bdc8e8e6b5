package core

import (
	"time"

	"schemble/internal/ensemble"
)

// DP is the dynamic-programming scheduler of Alg. 1. Rewards are quantized
// in multiples of Delta; one dimension of the table indexes queries in EDF
// order, the other the quantized cumulative reward. Each cell holds the
// Pareto frontier of model-availability vectors reaching that reward (an
// entry is pruned when another entry in the same cell is no later on every
// model). By Theorem 3 the plan's reward is within (1-epsilon) of the local
// optimum for Delta = epsilon/N.
//
// A DP instance owns a reusable arena (see arena.go) so the steady-state
// Schedule path performs no allocations. Consequences:
//
//   - A DP instance must NOT be shared by concurrent Schedule calls.
//     Distinct instances are fully independent.
//   - The returned Plan's Assignments map is owned by the scheduler and
//     valid only until the next Schedule call on the same instance;
//     callers that retain plans must copy the map.
//
// Every call solves from scratch and produces bit-identical plans to
// ReferenceDP, the pre-arena implementation kept test-side
// (dp_identity_test.go pins this over thousands of seeded instances).
type DP struct {
	// Delta is the reward quantization step; the paper's sweet spot is
	// 0.01 (Exp-4/Exp-8). Defaults to 0.01.
	Delta float64
	// MaxWindow caps how many EDF-first queries one invocation plans
	// (bounding worst-case latency of the scheduler itself under bursts);
	// 0 means 16. Queries beyond the window are left unassigned and picked
	// up by the next invocation.
	//
	// A call handed more queries than the window plans the window over the
	// m single-model subsets only. The reward trade-off cannot see the
	// queries queued behind the window, so a second model for one query in
	// it would spend capacity they need; the solve is also cheaper (m
	// transitions per frontier entry instead of 2^m - 1) exactly when the
	// buffer is deep. Which model still follows Reward(score, {k}), and
	// Theorem 3's bound holds over the singleton space.
	MaxWindow int
	// DisablePrune turns dominance pruning off (the abl-prune ablation);
	// frontiers are then truncated at UnprunedCap entries per level to
	// keep the table finite.
	DisablePrune bool
	// MaxFrontier beam-limits each level's Pareto frontier: when more
	// non-dominated entries than this survive, the worst (lowest exact
	// reward, then latest finish) are evicted. Bounds worst-case planning
	// cost with negligible quality loss; 0 means 12, negative disables.
	MaxFrontier int
	// Vanilla disables this implementation's exact-reward refinement
	// inside quantized levels, recovering the paper's Alg. 1 precisely:
	// within a level only availability vectors matter, so coarse Delta
	// genuinely trades accuracy for speed (the Fig. 21 tradeoff). The
	// default (false) keeps the refinement, which makes coarse Delta
	// nearly lossless.
	Vanilla bool

	scr *dpScratch
}

// UnprunedCap bounds per-level frontier size when pruning is disabled.
const UnprunedCap = 64

// Name implements Scheduler.
func (d *DP) Name() string { return "dp" }

// dominates reports whether a is no later than b on every replica slot.
// Slots within a model's segment are kept sorted, so element-wise
// comparison of the order statistics is a sound dominance test.
func dominates(a, b []time.Duration) bool {
	for k := range a {
		if a[k] > b[k] {
			return false
		}
	}
	return true
}

// quantize maps a reward to its level, robust to the binary representation
// of Delta (1.0/0.01 must be level 100, not 99).
func quantize(reward, delta float64) int {
	return int(reward/delta + 1e-9)
}

// Schedule implements Scheduler.
func (d *DP) Schedule(now time.Duration, queries []QueryInfo, avail Capacity, exec []time.Duration, r Rewarder) Plan {
	delta := d.Delta
	if delta <= 0 {
		delta = 0.01
	}
	window := d.MaxWindow
	if window <= 0 {
		window = 16
	}
	maxFront := d.MaxFrontier
	if maxFront == 0 {
		maxFront = 12
	}
	if d.scr == nil {
		d.scr = &dpScratch{}
	}
	s := d.scr
	s.delta, s.vanilla, s.noPrune, s.maxFront = delta, d.Vanilla, d.DisablePrune, maxFront

	plan := Plan{Assignments: s.planMap()}
	if len(queries) == 0 {
		return plan
	}
	order := s.edfOrder(queries)
	truncated := len(order) > window
	if truncated {
		order = order[:window]
	}
	base, lay := s.fl.flatten(now, avail)
	s.pickSubsets(avail.M(), truncated)
	s.setWidth(len(base))
	// Each query adds at most this many levels. Rewards above 1.0 clamp
	// into the top level (and negative rewards into level 0) rather than
	// indexing out of range; the exact reward is carried unclamped, so
	// extraction and TotalReward remain truthful.
	perQueryLevels := quantize(1, delta) + 1
	s.boundFrom(queries, order, base, lay, exec, r, perQueryLevels)
	if !s.build(queries, order, base, lay, exec, s.incumbent(queries, order, base, lay, exec), perQueryLevels) {
		// The beam or the unpruned cap dropped the greedy plan, so the
		// final top level lies below the incumbent: rebuild once under
		// the plain bound, which always reaches it (see boundFrom).
		s.rebuilds++
		s.build(queries, order, base, lay, exec, 0, perQueryLevels)
	}

	// Visit the non-empty cell with the largest quantized reward; within
	// it prefer the highest exact reward, then the plan finishing earliest
	// overall (most room for future arrivals), then a lexicographic
	// tie-break for determinism.
	final := &s.steps[len(order)]
	ids := final.levels[final.top].ids
	best := ids[0]
	for _, eid := range ids[1:] {
		if s.vanilla {
			if s.entries[eid].fin < s.entries[best].fin {
				best = eid
			}
			continue
		}
		if s.better(eid, best) {
			best = eid
		}
	}
	for id := best; s.entries[id].parent >= 0; id = s.entries[id].parent {
		plan.Assignments[s.entries[id].qID] = s.entries[id].choice
	}
	plan.TotalReward = s.entries[best].reward
	return plan
}

// build fills the step tables for the window order from base, building at
// step i only the levels that can still reach max(top[i], inc) — the best
// level known reachable — given what the remaining queries can add (see
// boundFrom for why that is exact). It reports whether the final table is
// non-empty, which holds whenever inc is at most the final top level.
func (s *dpScratch) build(queries []QueryInfo, order []int, base []time.Duration, lay layout, exec []time.Duration, inc, perQueryLevels int) bool {
	s.entries, s.slab, s.free = s.entries[:0], s.slab[:0], s.free[:0]
	s.ensureSteps(len(order) + 1)
	t0 := &s.steps[0]
	s.prepTable(t0, 1)
	t0.levels[0].ids = append(t0.levels[0].ids, s.newEntry(base, 0, maxOf(base), -1, ensemble.Empty, 0))
	t0.top = 0

	nsub := len(s.subsets)
	for i, qi := range order {
		q := &queries[qi]
		prev, next := &s.steps[i], &s.steps[i+1]
		s.prepTable(next, prev.top+perQueryLevels)
		// A cell below lo cannot reach the best known level whatever the
		// remaining queries add, and neither can a candidate landing below
		// floor; both are skipped.
		known := max(prev.top, inc)
		lo, floor := floorOf(known, s.rest[i]), floorOf(known, s.rest[i+1])
		qrw, qlvl := s.qrw[i*nsub:(i+1)*nsub], s.qlvl[i*nsub:(i+1)*nsub]
		for level := lo; level <= prev.top; level++ {
			for _, eid := range prev.levels[level].ids {
				// Copy the entry's fields: inserts below may grow the
				// entries slice and would invalidate a pointer.
				e := s.entries[eid]
				// Skip the query: same level, same availability.
				if level >= floor {
					s.insert(next, level, s.avail(eid), e.reward, eid, ensemble.Empty, q.ID)
				}
				// Try every subset that meets the deadline.
				for si, sub := range s.subsets {
					lvl := qlvl[si]
					if lvl < 0 || level+lvl < floor {
						continue
					}
					done := lay.completionOf(q, s.avail(eid), exec, sub, s.comp)
					if done > q.Deadline {
						continue
					}
					s.insert(next, level+lvl, s.comp, e.reward+qrw[si], eid, sub, q.ID)
				}
			}
		}
	}
	return s.steps[len(order)].top >= 0
}

// incumbent is the level of the EDF-greedy plan: walking the window from
// base, each query takes the subset with the highest level that still
// meets its deadline on the availability the queries before it left (ties
// to the earliest completion), and nothing when only level 0 fits. Every
// step of that walk is a transition the DP itself makes, so without a beam
// or the unpruned cap the final table reaches at least this level.
func (s *dpScratch) incumbent(queries []QueryInfo, order []int, base []time.Duration, lay layout, exec []time.Duration) int {
	copy(s.cur, base)
	nsub := len(s.subsets)
	inc := 0
	for i, qi := range order {
		q := &queries[qi]
		qlvl := s.qlvl[i*nsub : (i+1)*nsub]
		best, bestDone := 0, time.Duration(0)
		for si, sub := range s.subsets {
			lvl := qlvl[si]
			if lvl <= 0 || lvl < best {
				continue
			}
			done := lay.completionOf(q, s.cur, exec, sub, s.comp)
			if done > q.Deadline || lvl == best && done >= bestDone {
				continue
			}
			best, bestDone = lvl, done
			copy(s.pick, s.comp)
		}
		if best > 0 {
			inc += best
			copy(s.cur, s.pick)
		}
	}
	return inc
}

// floorOf is the lowest level of a step that can still reach level known:
// rest is the most the remaining queries can add.
func floorOf(known, rest int) int {
	if known < rest {
		return 0
	}
	return known - rest
}

func maxOf(xs []time.Duration) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	mx := xs[0]
	for _, x := range xs[1:] {
		if x > mx {
			mx = x
		}
	}
	return mx
}
