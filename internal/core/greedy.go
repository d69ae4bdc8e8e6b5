package core

import (
	"sort"
	"time"

	"schemble/internal/ensemble"
)

// Order selects the query processing order of the Greedy scheduler.
type Order int

// Greedy processing orders (Exp-4's baselines).
const (
	// EDF processes the earliest deadline first.
	EDF Order = iota
	// FIFO processes the earliest arrival first.
	FIFO
	// SJF processes the smallest estimated discrepancy score first
	// ("shortest job": easy queries need the least work).
	SJF
)

func (o Order) String() string {
	switch o {
	case EDF:
		return "edf"
	case FIFO:
		return "fifo"
	case SJF:
		return "sjf"
	default:
		return "order?"
	}
}

// Greedy schedules queries in a fixed order, assigning each the
// highest-reward subset that still meets its deadline given the commitments
// already made — ignoring the queries behind it, which is exactly the
// myopia the DP algorithm fixes.
//
// Like DP, a Greedy instance owns reusable scratch buffers: it must not
// be shared by concurrent Schedule calls, and the returned Plan's
// Assignments map is valid only until the next Schedule call on the same
// instance.
type Greedy struct {
	Order Order

	scr *greedyScratch
}

// greedyScratch holds Greedy's reusable per-instance buffers.
type greedyScratch struct {
	fl        flattenScratch
	sorter    greedySorter
	comp      []time.Duration
	bestAvail []time.Duration
	subsets   []ensemble.Subset
	subsetsM  int
	plan      map[int]ensemble.Subset
}

// greedySorter sorts a query index slice under one of the Greedy orders
// without the closure allocation of sort.Slice. The comparator is a
// total order whenever query IDs are unique.
type greedySorter struct {
	idx   []int
	qs    []QueryInfo
	order Order
}

func (g *greedySorter) Len() int      { return len(g.idx) }
func (g *greedySorter) Swap(i, j int) { g.idx[i], g.idx[j] = g.idx[j], g.idx[i] }
func (g *greedySorter) Less(i, j int) bool {
	qa, qb := g.qs[g.idx[i]], g.qs[g.idx[j]]
	switch g.order {
	case FIFO:
		if qa.Arrival != qb.Arrival {
			return qa.Arrival < qb.Arrival
		}
	case SJF:
		//schemble:floateq-ok deterministic tie-break: exact ties fall through to the next ordering key
		if qa.Score != qb.Score {
			return qa.Score < qb.Score
		}
	default: // EDF
		if qa.Deadline != qb.Deadline {
			return qa.Deadline < qb.Deadline
		}
	}
	return qa.ID < qb.ID
}

// Name implements Scheduler.
func (g *Greedy) Name() string { return "greedy+" + g.Order.String() }

// Schedule implements Scheduler.
func (g *Greedy) Schedule(now time.Duration, queries []QueryInfo, avail Capacity, exec []time.Duration, r Rewarder) Plan {
	if g.scr == nil {
		g.scr = &greedyScratch{}
	}
	s := g.scr
	if s.plan == nil {
		s.plan = make(map[int]ensemble.Subset, 16)
	}
	clear(s.plan)
	plan := Plan{Assignments: s.plan}
	if len(queries) == 0 {
		return plan
	}
	idx := s.sorter.idx[:0]
	for i := range queries {
		idx = append(idx, i)
	}
	s.sorter.idx, s.sorter.qs, s.sorter.order = idx, queries, g.Order
	sort.Sort(&s.sorter)
	s.sorter.qs = nil
	idx = s.sorter.idx

	cur, lay := s.fl.flatten(now, avail)
	if cap(s.comp) < len(cur) {
		s.comp = make([]time.Duration, len(cur))
		s.bestAvail = make([]time.Duration, len(cur))
	} else {
		s.comp = s.comp[:len(cur)]
		s.bestAvail = s.bestAvail[:len(cur)]
	}
	if s.subsets == nil && avail.M() > 0 || s.subsetsM != avail.M() {
		s.subsets = ensemble.AllSubsets(avail.M())
		s.subsetsM = avail.M()
	}
	for _, qi := range idx {
		q := &queries[qi]
		best := ensemble.Empty
		bestR := 0.0
		for _, sub := range s.subsets {
			done := lay.completionOf(q, cur, exec, sub, s.comp)
			if done > q.Deadline {
				continue
			}
			rw := r.Reward(q.Score, sub)
			//schemble:floateq-ok deterministic tie-break: an exact reward tie prefers the smaller subset
			if rw > bestR || (rw == bestR && best != ensemble.Empty && sub.Size() < best.Size()) {
				best, bestR = sub, rw
				copy(s.bestAvail, s.comp)
			}
		}
		plan.Assignments[q.ID] = best
		if best != ensemble.Empty {
			copy(cur, s.bestAvail)
			plan.TotalReward += bestR
		}
	}
	return plan
}

// Exhaustive finds the true optimal plan by trying every subset assignment
// over every query permutation-free EDF order (Theorem 1 licenses fixing
// the order). It is exponential in the number of queries and exists only to
// verify the DP's (1-epsilon) bound on small instances; MaxQueries guards
// against accidental blowups.
type Exhaustive struct {
	MaxQueries int // default 8
}

// Name implements Scheduler.
func (e *Exhaustive) Name() string { return "exhaustive" }

// Schedule implements Scheduler.
func (e *Exhaustive) Schedule(now time.Duration, queries []QueryInfo, avail Capacity, exec []time.Duration, r Rewarder) Plan {
	limit := e.MaxQueries
	if limit <= 0 {
		limit = 8
	}
	if len(queries) > limit {
		panic("core: Exhaustive over too many queries")
	}
	order := edfOrder(queries)
	base, lay := flatten(now, avail)
	options := append([]ensemble.Subset{ensemble.Empty}, ensemble.AllSubsets(avail.M())...)

	best := Plan{Assignments: map[int]ensemble.Subset{}}
	bestReward := -1.0
	assign := make([]ensemble.Subset, len(order))
	scratch := make([]time.Duration, len(base))

	var recurse func(i int, cur []time.Duration, reward float64)
	recurse = func(i int, cur []time.Duration, reward float64) {
		if i == len(order) {
			if reward > bestReward {
				bestReward = reward
				best.Assignments = make(map[int]ensemble.Subset, len(order))
				for j, qi := range order {
					best.Assignments[queries[qi].ID] = assign[j]
				}
				best.TotalReward = reward
			}
			return
		}
		q := &queries[order[i]]
		for _, s := range options {
			if s == ensemble.Empty {
				assign[i] = s
				recurse(i+1, cur, reward)
				continue
			}
			done := lay.completionOf(q, cur, exec, s, scratch)
			if done > q.Deadline {
				continue
			}
			na := make([]time.Duration, len(base))
			copy(na, scratch)
			assign[i] = s
			recurse(i+1, na, reward+r.Reward(q.Score, s))
		}
	}
	recurse(0, base, 0)
	return best
}
