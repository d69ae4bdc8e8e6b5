package core

import (
	"time"

	"schemble/internal/ensemble"
)

// ReferenceDP is the historical, allocation-per-call implementation of
// the DP scheduler, preserved verbatim as the differential oracle:
// dp_identity_test.go and FuzzDPSchedule replay seeded instances through
// DP and ReferenceDP and require bit-identical plans, which is what
// licenses every shortcut the arena-based DP takes (level bounds, the
// incumbent, the Pareto short-circuit, entry recycling).
//
// Do not "fix" it: its value is being the frozen pre-arena semantics, plus
// the one rule DP has gained since — a truncated window plans over the
// single-model subsets (see DP.MaxWindow). That includes one historical
// wart the live DP repaired — a Rewarder returning a reward above 1.0
// makes ReferenceDP index past its level table and panic, whereas DP
// clamps into the top level (see TestDPOutOfRangeRewarder).
type ReferenceDP struct {
	// Fields mirror DP; see that type for documentation.
	Delta        float64
	MaxWindow    int
	DisablePrune bool
	MaxFrontier  int
	Vanilla      bool
}

// Name implements Scheduler.
func (d *ReferenceDP) Name() string { return "dp-reference" }

// refEntry is one Pareto-frontier member of the reference
// implementation: a freshly allocated availability vector, the exact
// cumulative reward, and the back-pointer chain reconstructing the plan.
type refEntry struct {
	avail  []time.Duration
	reward float64
	parent *refEntry
	choice ensemble.Subset
	qID    int
}

// Schedule implements Scheduler. The body is the pre-arena DP.Schedule,
// verbatim.
func (d *ReferenceDP) Schedule(now time.Duration, queries []QueryInfo, avail Capacity, exec []time.Duration, r Rewarder) Plan {
	delta := d.Delta
	if delta <= 0 {
		delta = 0.01
	}
	window := d.MaxWindow
	if window <= 0 {
		window = 16
	}
	plan := Plan{Assignments: make(map[int]ensemble.Subset, len(queries))}
	if len(queries) == 0 {
		return plan
	}
	order := edfOrder(queries)
	if len(order) > window {
		order = order[:window]
	}
	base, lay := flatten(now, avail)
	subsets := ensemble.AllSubsets(avail.M())
	if len(queries) > window {
		subsets = ensemble.SubsetsOfSize(avail.M(), 1)
	}

	// frontier[level] holds the Pareto entries attaining quantized reward
	// level after the queries processed so far. Levels index a dense
	// slice (each query adds at most ceil(1/delta) levels), iterated in
	// ascending order, so the DP is fully deterministic.
	perQueryLevels := quantize(1, delta) + 1
	frontier := make([][]*refEntry, 1, 1+len(order)*perQueryLevels)
	frontier[0] = []*refEntry{{avail: base}}
	scratch := make([]time.Duration, len(base))

	maxFrontier := d.MaxFrontier
	if maxFrontier == 0 {
		maxFrontier = 12
	}
	// insert adds a candidate (avail in cand, exact reward rw) to the
	// frontier, allocating the availability vector only when the
	// candidate actually survives dominance checks and the beam limit.
	insert := func(front []*refEntry, cand []time.Duration, rw float64, parent *refEntry, choice ensemble.Subset, qID int) []*refEntry {
		if d.DisablePrune {
			if len(front) >= UnprunedCap {
				return front
			}
			na := make([]time.Duration, len(cand))
			copy(na, cand)
			return append(front, &refEntry{avail: na, reward: rw,
				parent: parent, choice: choice, qID: qID})
		}
		for _, f := range front {
			if (d.Vanilla || f.reward >= rw) && dominates(f.avail, cand) {
				return front
			}
		}
		out := front[:0]
		for _, f := range front {
			if !((d.Vanilla || rw >= f.reward) && dominates(cand, f.avail)) {
				out = append(out, f)
			}
		}
		na := make([]time.Duration, len(cand))
		copy(na, cand)
		out = append(out, &refEntry{avail: na, reward: rw,
			parent: parent, choice: choice, qID: qID})
		if maxFrontier > 0 && len(out) > maxFrontier {
			// Evict the worst entry under the betterRef ordering.
			worst := 0
			for i := 1; i < len(out); i++ {
				if betterRef(out[worst], out[i]) {
					worst = i
				}
			}
			out[worst] = out[len(out)-1]
			out = out[:len(out)-1]
		}
		return out
	}
	for _, qi := range order {
		q := &queries[qi]
		next := make([][]*refEntry, len(frontier)+perQueryLevels)
		for level, entries := range frontier {
			for _, e := range entries {
				// Skip the query: same level, same availability.
				next[level] = insert(next[level], e.avail, e.reward, e, ensemble.Empty, q.ID)
				// Try every subset that meets the deadline.
				for _, s := range subsets {
					done := lay.completionOf(q, e.avail, exec, s, scratch)
					if done > q.Deadline {
						continue
					}
					rw := r.Reward(q.Score, s)
					lvl := level + quantize(rw, delta)
					next[lvl] = insert(next[lvl], scratch, e.reward+rw, e, s, q.ID)
				}
			}
		}
		frontier = next
	}

	// Visit the non-empty cell with the largest quantized reward; within
	// it prefer the highest exact reward, then the plan finishing earliest
	// overall (most room for future arrivals), then a lexicographic
	// tie-break for determinism.
	bestLevel := -1
	for level := len(frontier) - 1; level >= 0; level-- {
		if len(frontier[level]) > 0 {
			bestLevel = level
			break
		}
	}
	if bestLevel < 0 {
		return plan
	}
	entries := frontier[bestLevel]
	best := entries[0]
	for _, e := range entries[1:] {
		if d.Vanilla {
			if maxOf(e.avail) < maxOf(best.avail) {
				best = e
			}
			continue
		}
		if betterRef(e, best) {
			best = e
		}
	}
	for e := best; e != nil && e.parent != nil; e = e.parent {
		plan.Assignments[e.qID] = e.choice
	}
	plan.TotalReward = best.reward
	return plan
}

// betterRef orders candidates within the winning level: exact reward
// descending, overall finish ascending, then lexicographic availability.
func betterRef(a, b *refEntry) bool {
	if a.reward != b.reward {
		return a.reward > b.reward
	}
	am, bm := maxOf(a.avail), maxOf(b.avail)
	if am != bm {
		return am < bm
	}
	for k := range a.avail {
		if a.avail[k] != b.avail[k] {
			return a.avail[k] < b.avail[k]
		}
	}
	return false
}
