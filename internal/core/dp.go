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
// Schedule path performs no allocations, and it reuses the frontier tables
// of the previous call when the inputs share an unchanged EDF prefix.
// Consequences:
//
//   - A DP instance must NOT be shared by concurrent Schedule calls.
//     Distinct instances are fully independent.
//   - The returned Plan's Assignments map is owned by the scheduler and
//     valid only until the next Schedule call on the same instance;
//     callers that retain plans must copy the map.
//   - The Rewarder must be a pure function of (score, subset): the
//     incremental path assumes the same Rewarder value yields the same
//     rewards it did on the previous call.
//
// Both paths — incremental and from-scratch — produce bit-identical plans
// to ReferenceDP, the retained pre-arena implementation
// (dp_identity_test.go pins this over thousands of seeded instances).
type DP struct {
	// Delta is the reward quantization step; the paper's sweet spot is
	// 0.01 (Exp-4/Exp-8). Defaults to 0.01.
	Delta float64
	// MaxWindow caps how many EDF-first queries one invocation plans
	// (bounding worst-case latency of the scheduler itself under bursts);
	// 0 means 16. Queries beyond the window are left unassigned and picked
	// up by the next invocation.
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
		return plan // previous arena state stays valid for the next call
	}
	order := s.edfOrder(queries)
	if len(order) > window {
		order = order[:window]
	}
	base, lay := s.fl.flatten(now, avail)
	subsets := s.allSubsets(avail.M())
	// Each query adds at most this many levels. Rewards above 1.0 clamp
	// into the top level (and negative rewards into level 0) rather than
	// indexing out of range; the exact reward is carried unclamped, so
	// extraction and TotalReward remain truthful.
	perQueryLevels := quantize(1, delta) + 1

	// Incremental reuse: when everything but the queue is unchanged, keep
	// the frontier tables of the longest shared EDF-ordered queue prefix
	// and re-solve only from the first divergent query.
	p := 0
	reuse := s.pValid && s.pVanilla == d.Vanilla && s.pNoPrune == d.DisablePrune &&
		s.pMaxFront == maxFront && sameRewarder(s.pRewarder, r) &&
		durEq(s.pExec, exec) && intEq(s.pOff, lay.off) && durEq(s.pBase, base)
	//schemble:floateq-ok reuse fingerprint: prefix reuse requires the exact same quantization step
	reuse = reuse && s.pDelta == delta
	s.pValid = false // invalid while rebuilding (a Rewarder may panic mid-solve)
	if reuse {
		max := len(order)
		if len(s.pOrder) < max {
			max = len(s.pOrder)
		}
		for p < max && queries[order[p]] == s.pOrder[p] {
			p++
		}
	} else {
		s.resetArena(len(base))
		s.ensureSteps(1)
		t0 := &s.steps[0]
		s.prepTable(t0, 1)
		root := s.newEntry(base, 0, maxOf(base), -1, ensemble.Empty, 0)
		t0.levels[0].ids = append(t0.levels[0].ids, root)
		s.nsteps = 1
	}
	if p < len(order) {
		// At least one step is rebuilt: refresh the level bounds (the
		// verbatim-repeat path skips this — a window that only lost its
		// tail can only raise the floors its retained tables satisfy).
		// Retained tables built under a floor above what this suffix
		// needs lack cells that are live now, so reuse stops before the
		// first such step.
		s.boundFrom(p, queries, order, base, lay, exec, r, perQueryLevels)
		for j := 1; j <= p; j++ {
			if s.steps[j].floor > floorOf(s.steps[j-1].top, s.rest[j]) {
				p = j - 1
				break
			}
		}
	}
	s.invalidateFrom(p + 1)

	nsub := len(subsets)
	for i := p; i < len(order); i++ {
		q := queries[order[i]]
		s.ensureSteps(i + 2)
		// Take table pointers only after ensureSteps: growth moves steps.
		prev := &s.steps[i]
		next := &s.steps[i+1]
		s.prepTable(next, prev.top+perQueryLevels)
		// Level bounds (see boundFrom): a cell below lo cannot reach the
		// final top level whatever the remaining queries add, and neither
		// can a candidate landing below next.floor; both are skipped. The
		// skip transition keeps prev's top level non-empty in next.
		lo := floorOf(prev.top, s.rest[i])
		next.floor = floorOf(prev.top, s.rest[i+1])
		next.top = prev.top
		qrw, qlvl := s.qrw[i*nsub:(i+1)*nsub], s.qlvl[i*nsub:(i+1)*nsub]
		for level := lo; level <= prev.top; level++ {
			for _, eid := range prev.levels[level].ids {
				// Copy the entry's fields: inserts below may grow the
				// entries slice and would invalidate a pointer.
				e := s.entries[eid]
				// Skip the query: same level, same availability.
				if level >= next.floor {
					s.insert(next, level, s.avail(eid), e.reward, eid, ensemble.Empty, q.ID)
				}
				// Try every subset that meets the deadline.
				for si, sub := range subsets {
					lvl := qlvl[si]
					if lvl < 0 || level+lvl < next.floor {
						continue
					}
					done := lay.completion(s.avail(eid), exec, sub, s.comp)
					if done > q.Deadline {
						continue
					}
					s.insert(next, level+lvl, s.comp, e.reward+qrw[si], eid, sub, q.ID)
					if level+lvl > next.top {
						next.top = level + lvl
					}
				}
			}
		}
		s.nsteps = i + 2
	}

	// Visit the non-empty cell with the largest quantized reward; within
	// it prefer the highest exact reward, then the plan finishing earliest
	// overall (most room for future arrivals), then a lexicographic
	// tie-break for determinism.
	final := &s.steps[len(order)]
	bestLevel := final.top
	ids := final.levels[bestLevel].ids
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

	// Record the fingerprint for the next call's prefix reuse.
	s.pDelta, s.pVanilla, s.pNoPrune, s.pMaxFront = delta, d.Vanilla, d.DisablePrune, maxFront
	s.pRewarder = r
	s.pExec = append(s.pExec[:0], exec...)
	s.pOff = append(s.pOff[:0], lay.off...)
	s.pBase = append(s.pBase[:0], base...)
	s.pOrder = s.pOrder[:0]
	for _, qi := range order {
		s.pOrder = append(s.pOrder, queries[qi])
	}
	s.pValid = true
	return plan
}

// floorOf is the lowest level of a step that can still reach the final
// top level: top is the highest non-empty level of the step before it and
// rest the most the remaining queries can add.
func floorOf(top, rest int) int {
	if top < rest {
		return 0
	}
	return top - rest
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
