// Package core contains the paper's primary contribution: the query
// difficulty-dependent task scheduler. Given the queries waiting in the
// buffer — each with an arrival time, a deadline and a predicted
// discrepancy score — and the current availability of every base model, a
// scheduler picks a model subset for each query (possibly the empty set,
// i.e. reject/skip) such that chosen subsets complete before their
// deadlines and the total profiled reward is maximized.
//
// The flagship implementation is DP, the dynamic-programming algorithm of
// Alg. 1: queries are ordered earliest-deadline-first (optimal once subsets
// are fixed, Theorem 2), rewards are quantized in steps of delta, and each
// DP cell keeps a Pareto frontier of model-availability vectors with
// dominance pruning. Greedy+EDF/FIFO/SJF baselines and an exhaustive
// optimal scheduler (for testing the (1-epsilon) bound of Theorem 3) live
// alongside it.
package core

import (
	"sort"
	"time"

	"schemble/internal/ensemble"
)

// QueryInfo is the scheduler's view of one buffered query.
type QueryInfo struct {
	// ID identifies the query to the runtime.
	ID int
	// Arrival is the absolute (virtual) arrival time.
	Arrival time.Duration
	// Deadline is the absolute time by which the query must complete.
	Deadline time.Duration
	// Score is the predicted discrepancy score in [0,1].
	Score float64
	// Sunk is the models already running, or done with, the query's task,
	// and SunkBy when the last of them finishes. A subset pays a replica
	// slot only for its models outside Sunk; one that holds a sunk model
	// completes no earlier than SunkBy. Empty for a query no task of which
	// has started, the paper's case.
	Sunk   ensemble.Subset
	SunkBy time.Duration
}

// Rewarder maps a query's difficulty score and a candidate model subset to
// the expected accuracy reward. profiling.Profile implements it.
type Rewarder interface {
	Reward(score float64, s ensemble.Subset) float64
}

// Plan is a scheduler's decision: the subset assigned to each query (absent
// or Empty means skip) and the plan's total quantifiable reward. Queries
// are to be executed in EDF order (consistent query order, Theorem 1).
type Plan struct {
	Assignments map[int]ensemble.Subset
	TotalReward float64
}

// Subset returns the plan's assignment for query id (Empty when skipped).
func (p Plan) Subset(id int) ensemble.Subset { return p.Assignments[id] }

// Clone returns a copy of the plan whose Assignments map is owned by the
// caller. Plans returned by Schedule share their Assignments map with the
// scheduler's arena and are valid only until the next Schedule call on
// the same scheduler; Clone is the one sanctioned way to retain a plan
// past that point (the planown analyzer enforces this).
func (p Plan) Clone() Plan {
	out := Plan{TotalReward: p.TotalReward}
	if p.Assignments != nil {
		out.Assignments = make(map[int]ensemble.Subset, len(p.Assignments))
		//schemble:maporder-ok map-to-map copy: the result is independent of iteration order
		for id, s := range p.Assignments {
			out.Assignments[id] = s
		}
	}
	return out
}

// Scheduler solves the local scheduling subproblem at one instant.
type Scheduler interface {
	Name() string
	// Schedule plans subsets for queries. now is the current time;
	// avail[k][r] is the absolute time replica r of model k finishes its
	// in-flight work (values in the past mean "idle now"); exec[k] is the
	// expected execution time of one task on model k — the amortized
	// per-item cost when the simulator batches. A query's completion on a
	// subset follows the sunk rule (QueryInfo.Sunk): its sunk models take
	// no slot of avail.
	Schedule(now time.Duration, queries []QueryInfo, avail Capacity, exec []time.Duration, r Rewarder) Plan
}

// edfLess is the EDF ordering: deadline, then arrival, then ID. With
// unique IDs it is a total order, so any comparison sort produces the
// same permutation from it.
func edfLess(qa, qb QueryInfo) bool {
	if qa.Deadline != qb.Deadline {
		return qa.Deadline < qb.Deadline
	}
	if qa.Arrival != qb.Arrival {
		return qa.Arrival < qb.Arrival
	}
	return qa.ID < qb.ID
}

// edfOrder returns the indices of queries sorted by edfLess, allocating a
// fresh index slice. Hot paths use dpScratch.edfOrder, which reuses its
// slice and sorter.
func edfOrder(queries []QueryInfo) []int {
	idx := make([]int, len(queries))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		return edfLess(queries[idx[a]], queries[idx[b]])
	})
	return idx
}
