package core

import (
	"sort"
	"time"

	"schemble/internal/ensemble"
)

// This file implements the per-scheduler arena behind DP.Schedule. The
// arena turns the scheduler hot path into a ~zero-allocation loop by
// replacing the per-call frontier tables and per-entry availability
// copies with reusable storage owned by the scheduler instance:
//
//   - entries:  one flat slice of dpEntry; frontier membership and
//     back-pointers are int32 indices into it, so entries survive slice
//     growth (pointers into a growing slice would not).
//   - slab:     all availability vectors, stored as fixed-width regions
//     of one backing slice; dpEntry.off locates an entry's region.
//   - free:     recycled entry ids. An entry evicted or dominated while
//     its table is being built has no children yet (children are only
//     created in later steps), so its id and slab region are immediately
//     reusable.
//   - steps:    one frontier table per DP step. Every call rebuilds them
//     from the root; keeping the tables (and each level's id slice)
//     across calls is what keeps a warmed call at zero allocations.
//   - bounds:   per window position, each subset's reward and level
//     evaluated once from base, the most the remaining queries can still
//     add, and the level of an EDF-greedy plan. Cells that cannot reach
//     the best level known reachable are never built (boundFrom has the
//     exactness argument).
//
// The arena also caches the flatten buffers, the EDF index sorter, the
// two subset enumerations and the returned Assignments map. None of this is
// goroutine-safe: a DP instance must not be shared across concurrent
// Schedule calls (no caller does — see the DP doc comment).

// dpEntry is one Pareto-frontier member. Its availability vector lives
// in the arena slab at [off, off+w); fin caches the vector's maximum
// (the plan's overall finish time), the hottest comparison key.
type dpEntry struct {
	off    int32
	parent int32 // arena id of the predecessor entry; -1 for the root
	qID    int
	choice ensemble.Subset
	reward float64
	fin    time.Duration
}

// dpLevel is one quantized-reward cell: the ids of its frontier entries,
// in insertion order (order matters — eviction keeps the first minimal
// entry on ties, and extraction walks ids in order). worst caches the
// index (into ids) of the entry the beam eviction would discard, enabling
// the Pareto short-circuit; -1 means unknown, and any mutation resets it.
type dpLevel struct {
	ids   []int32
	worst int32
}

// dpTable is the frontier table after one DP step. top is its highest
// non-empty level, -1 while the table is empty: insert maintains it, and
// an insert never empties a level.
type dpTable struct {
	levels []dpLevel
	top    int
}

// dpScratch is the reusable arena owned by one DP instance.
type dpScratch struct {
	fl     flattenScratch
	sorter edfSorter

	w       int       // width of every availability vector this call
	entries []dpEntry // arena; ids are indices into this slice
	slab    []time.Duration
	free    []int32 // recycled entry ids
	steps   []dpTable

	comp []time.Duration // completion() output buffer
	cur  []time.Duration // incumbent's availability so far
	pick []time.Duration // incumbent's best completion for the current query

	// Per-query quantities hoisted out of the per-entry loop, indexed by
	// window position (times the subset count for qrw/qlvl). They depend
	// only on the query, base, exec and the Rewarder. See boundFrom.
	qrw  []float64 // exact reward of (query, subset)
	qlvl []int     // its clamped quantized level; -1 if it cannot meet the deadline even from base
	qmax []int     // the query's best level over its feasible subsets
	rest []int     // rest[i] = sum of qmax[i:], len(window)+1

	rebuilds int // solves the incumbent bound had to redo; tests read it

	// subsets is the list this call plans over: all (every non-empty
	// subset) or singles (the m one-model subsets), both cached per model
	// count.
	subsets, all, singles []ensemble.Subset
	subsetsM              int
	plan                  map[int]ensemble.Subset

	// Per-call resolved configuration, set by Schedule.
	delta    float64
	vanilla  bool
	noPrune  bool
	maxFront int
}

// avail returns entry id's availability vector. The result aliases the
// slab and is invalidated by the next newEntry call; re-fetch per use.
func (s *dpScratch) avail(id int32) []time.Duration {
	off := s.entries[id].off
	return s.slab[off : off+int32(s.w)]
}

// planMap returns the reused Assignments map, emptied.
func (s *dpScratch) planMap() map[int]ensemble.Subset {
	if s.plan == nil {
		s.plan = make(map[int]ensemble.Subset, 16)
	}
	clear(s.plan)
	return s.plan
}

// pickSubsets sets the call's subset list for m models: the singletons
// when singles is set, else every non-empty subset.
func (s *dpScratch) pickSubsets(m int, singles bool) {
	if s.all == nil || s.subsetsM != m {
		s.all, s.singles = ensemble.AllSubsets(m), ensemble.SubsetsOfSize(m, 1)
		s.subsetsM = m
	}
	s.subsets = s.all
	if singles {
		s.subsets = s.singles
	}
}

// setWidth fixes the availability width for this call and sizes the
// per-vector buffers to it.
func (s *dpScratch) setWidth(w int) {
	s.w = w
	s.comp, s.cur, s.pick = sized(s.comp, w), sized(s.cur, w), sized(s.pick, w)
}

// ensureSteps grows the step-table slice to at least n tables.
func (s *dpScratch) ensureSteps(n int) {
	for len(s.steps) < n {
		s.steps = append(s.steps, dpTable{})
	}
}

// prepTable resets t to n empty levels, recycling the per-level id
// slices accumulated by earlier calls.
func (s *dpScratch) prepTable(t *dpTable, n int) {
	for cap(t.levels) < n {
		t.levels = append(t.levels[:cap(t.levels)], dpLevel{worst: -1})
	}
	t.levels = t.levels[:n]
	for i := range t.levels {
		t.levels[i].ids = t.levels[i].ids[:0]
		t.levels[i].worst = -1
	}
	t.top = -1
}

// boundFrom computes the level bounds for the window order: it evaluates
// each subset once per query — exact reward, clamped level, and whether it
// meets the query's deadline from base — and sums rest from the back.
//
// Why skipping below the bound is exact. An insert touches one (step,
// level) cell only, so a cell's content is a function of the inserts into
// it. Every entry's availability is >= base and completion is monotone in
// availability (the sunk rule only takes a constant max), so a query adds
// at most qmax to a level. Let K_i =
// max(top[i], inc), the best level known reachable after step i. build
// reads step i only from lo_i = floorOf(K_i, rest[i]) up and inserts into
// step i+1 only from floor_i+1 = floorOf(K_i, rest[i+1]) up. A cell at or
// above floor_i+1 is fed only from levels at or above lo_i (the two differ
// by qmax[i]), and lo_i >= floor_i because K never falls: when top[i] >
// inc the skip transition re-inserts top[i] one step on. By induction
// every cell at or above its floor sees exactly the inserts an unbounded
// solve makes, in every mode (Vanilla, DisablePrune, beam), whatever inc
// is. The final floor is K_n-1 and the unbounded final top is at least
// top[n-1] (skips again), so a non-empty bounded final table has the
// unbounded top level, holding the cells an unbounded solve extracts
// from. It is empty exactly when the unbounded top lies below inc, and
// never with inc = 0.
//
// incumbent's plan is a path of DP transitions, so an exact table reaches
// its level; only the beam or the unpruned cap can drop it, and then
// Schedule rebuilds once with inc = 0.
func (s *dpScratch) boundFrom(queries []QueryInfo, order []int, base []time.Duration, lay layout, exec []time.Duration, r Rewarder, perQueryLevels int) {
	n, nsub := len(order), len(s.subsets)
	s.qrw, s.qlvl = sized(s.qrw, n*nsub), sized(s.qlvl, n*nsub)
	s.qmax, s.rest = sized(s.qmax, n), sized(s.rest, n+1)
	for i, qi := range order {
		q := &queries[qi]
		best := 0
		for si, sub := range s.subsets {
			lvl := -1
			if lay.completionOf(q, base, exec, sub, s.comp) <= q.Deadline {
				rw := r.Reward(q.Score, sub)
				lvl = quantize(rw, s.delta)
				if lvl >= perQueryLevels {
					lvl = perQueryLevels - 1
				} else if lvl < 0 {
					lvl = 0
				}
				s.qrw[i*nsub+si] = rw
				if lvl > best {
					best = lvl
				}
			}
			s.qlvl[i*nsub+si] = lvl
		}
		s.qmax[i] = best
	}
	s.rest[n] = 0
	for i := n - 1; i >= 0; i-- {
		s.rest[i] = s.rest[i+1] + s.qmax[i]
	}
}

// newEntry allocates an arena entry holding a copy of cand, preferring
// the free list. cand may alias the slab (a parent's vector) or the
// completion buffer; regions never overlap, and append growth reads
// from the old backing array, so the copy is safe either way.
func (s *dpScratch) newEntry(cand []time.Duration, rw float64, fin time.Duration, parent int32, choice ensemble.Subset, qID int) int32 {
	var id int32
	if n := len(s.free); n > 0 {
		id = s.free[n-1]
		s.free = s.free[:n-1]
		off := s.entries[id].off
		copy(s.slab[off:off+int32(s.w)], cand)
	} else {
		id = int32(len(s.entries))
		s.entries = append(s.entries, dpEntry{off: int32(len(s.slab))})
		s.slab = append(s.slab, cand...)
	}
	e := &s.entries[id]
	e.parent = parent
	e.qID = qID
	e.choice = choice
	e.reward = rw
	e.fin = fin
	return id
}

// insert adds a candidate (availability vector cand, exact cumulative
// reward rw) to level lvl of table t. This is the tested method behind
// the DP recurrence — the operation sequence (first-dominator early
// return, in-place filter, append, worst-entry eviction) replicates the
// historical closure exactly, so plans stay bit-identical to
// ReferenceDP; dp_identity_test.go enforces that.
func (s *dpScratch) insert(t *dpTable, lvl int, cand []time.Duration, rw float64, parent int32, choice ensemble.Subset, qID int) {
	if lvl > t.top {
		t.top = lvl
	}
	L := &t.levels[lvl]
	front := L.ids
	if s.noPrune {
		if len(front) >= UnprunedCap {
			return
		}
		L.ids = append(front, s.newEntry(cand, rw, maxOf(cand), parent, choice, qID))
		L.worst = -1
		return
	}
	cfin := maxOf(cand)
	if !s.vanilla && s.maxFront > 0 && len(front) == s.maxFront {
		// Pareto short-circuit: with a full beam, if the entry eviction
		// would discard is still strictly better than the candidate,
		// then by transitivity every entry is, so the candidate can
		// neither dominate anything (domination requires rw >= f.reward
		// and an everywhere-no-later vector, which would make f not
		// better) nor survive the eviction it would trigger. The whole
		// insert is a no-op; skipping it is bit-identical. Unsound
		// under Vanilla, where a lower-reward candidate can still evict
		// availability-dominated entries.
		if L.worst < 0 {
			w := 0
			for i := 1; i < len(front); i++ {
				if s.better(front[w], front[i]) {
					w = i
				}
			}
			L.worst = int32(w)
		}
		we := s.entries[front[L.worst]]
		if betterRaw(we.reward, we.fin, s.avail(front[L.worst]), rw, cfin, cand) {
			return
		}
	}
	for _, fid := range front {
		f := &s.entries[fid]
		if (s.vanilla || f.reward >= rw) && dominates(s.avail(fid), cand) {
			return
		}
	}
	out := front[:0]
	for _, fid := range front {
		f := &s.entries[fid]
		if !((s.vanilla || rw >= f.reward) && dominates(cand, s.avail(fid))) {
			out = append(out, fid)
		} else {
			s.free = append(s.free, fid)
		}
	}
	out = append(out, s.newEntry(cand, rw, cfin, parent, choice, qID))
	if s.maxFront > 0 && len(out) > s.maxFront {
		// Evict the worst entry under the betterRaw ordering.
		worst := 0
		for i := 1; i < len(out); i++ {
			if s.better(out[worst], out[i]) {
				worst = i
			}
		}
		s.free = append(s.free, out[worst])
		out[worst] = out[len(out)-1]
		out = out[:len(out)-1]
	}
	L.ids = out
	L.worst = -1
}

// better reports whether arena entry a beats b under the within-level
// ordering (exact reward descending, overall finish ascending, then
// lexicographic availability).
func (s *dpScratch) better(a, b int32) bool {
	ea, eb := &s.entries[a], &s.entries[b]
	return betterRaw(ea.reward, ea.fin, s.avail(a), eb.reward, eb.fin, s.avail(b))
}

// betterRaw is the within-level ordering over (reward, finish,
// availability) triples, shared by frontier eviction and extraction.
func betterRaw(ar float64, af time.Duration, aa []time.Duration, br float64, bf time.Duration, ba []time.Duration) bool {
	//schemble:floateq-ok deterministic tie-break: exact ties fall through to the next ordering key
	if ar != br {
		return ar > br
	}
	if af != bf {
		return af < bf
	}
	for k := range aa {
		if aa[k] != ba[k] {
			return aa[k] < ba[k]
		}
	}
	return false
}

// edfOrder fills the reused index slice with the EDF permutation of
// queries. The comparator is a total order whenever query IDs are unique
// (every runtime caller guarantees that), so the unstable sort.Sort
// yields the same permutation sort.Slice did.
func (s *dpScratch) edfOrder(queries []QueryInfo) []int {
	idx := s.sorter.idx[:0]
	for i := range queries {
		idx = append(idx, i)
	}
	s.sorter.idx, s.sorter.qs = idx, queries
	sort.Sort(&s.sorter)
	s.sorter.qs = nil
	return s.sorter.idx
}

// edfSorter sorts a query index slice EDF-first without the closure
// allocation of sort.Slice.
type edfSorter struct {
	idx []int
	qs  []QueryInfo
}

func (e *edfSorter) Len() int      { return len(e.idx) }
func (e *edfSorter) Swap(i, j int) { e.idx[i], e.idx[j] = e.idx[j], e.idx[i] }
func (e *edfSorter) Less(i, j int) bool {
	return edfLess(e.qs[e.idx[i]], e.qs[e.idx[j]])
}

// sized returns s resliced to n elements, reallocated only when its
// capacity is short; contents are not kept.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
