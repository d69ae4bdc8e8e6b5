package core

import (
	"reflect"
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
//   - steps:    one frontier table per DP step, RETAINED between calls.
//     When consecutive Schedule calls see the same capacity, exec
//     vector, rewarder and config, and the EDF-ordered queue prefix is
//     unchanged, the tables for that prefix are reused verbatim and the
//     DP resumes from the first divergent query. At and above its
//     floor (below), step table i+1 is a pure function of table i,
//     queries[order[i]], exec, the flattened layout, the Rewarder and
//     the DP config, so prefix reuse is bit-identical to a from-scratch
//     solve (ReferenceDP is the oracle; see dp_identity_test.go).
//   - bounds:   per window position, each subset's reward and level
//     evaluated once from base, and the most the remaining queries can
//     still add. Cells that cannot reach the final top level even so
//     are never built (boundFrom has the exactness argument); each table
//     records the floor it was built under, and reuse stops at the first
//     retained table whose floor is too high for the new suffix.
//
// The arena also caches the flatten buffers, the EDF index sorter, the
// subset enumeration and the returned Assignments map. None of this is
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
// non-empty level. floor is the level bound the table was built under:
// levels at or above it hold exactly the entries an unbounded solve would
// put there, levels below it are empty (see boundFrom).
type dpTable struct {
	levels []dpLevel
	top    int
	floor  int
}

// dpScratch is the reusable arena owned by one DP instance.
type dpScratch struct {
	fl     flattenScratch
	sorter edfSorter

	w       int       // width of every availability vector this generation
	entries []dpEntry // arena; ids are indices into this slice
	slab    []time.Duration
	free    []int32 // recycled entry ids
	steps   []dpTable
	nsteps  int // steps[:nsteps] hold valid tables

	comp []time.Duration // completion() output buffer

	// Per-query quantities hoisted out of the per-entry loop, indexed by
	// window position (times the subset count for qrw/qlvl). They depend
	// only on the query, base, exec and the Rewarder, so positions inside
	// a reused prefix stay valid across calls. See boundFrom.
	qrw  []float64 // exact reward of (query, subset)
	qlvl []int     // its clamped quantized level; -1 if it cannot meet the deadline even from base
	qmax []int     // the query's best level over its feasible subsets
	rest []int     // rest[i] = sum of qmax[i:], len(window)+1

	subsets  []ensemble.Subset
	subsetsM int
	plan     map[int]ensemble.Subset

	// Per-call resolved configuration, set by Schedule.
	delta    float64
	vanilla  bool
	noPrune  bool
	maxFront int

	// Fingerprint of the previous call, for incremental prefix reuse.
	pValid    bool
	pDelta    float64
	pVanilla  bool
	pNoPrune  bool
	pMaxFront int
	pRewarder Rewarder
	pExec     []time.Duration
	pOff      []int
	pBase     []time.Duration
	pOrder    []QueryInfo // the EDF-ordered window actually planned
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

// allSubsets caches the non-empty subset enumeration for m models.
func (s *dpScratch) allSubsets(m int) []ensemble.Subset {
	if s.subsets == nil && m > 0 || s.subsetsM != m {
		s.subsets = ensemble.AllSubsets(m)
		s.subsetsM = m
	}
	return s.subsets
}

// resetArena discards all entries and tables and fixes the availability
// width for the new generation. Stale ids left inside retained step
// tables are harmless: prepTable truncates every level before use.
func (s *dpScratch) resetArena(w int) {
	s.w = w
	s.entries = s.entries[:0]
	s.slab = s.slab[:0]
	s.free = s.free[:0]
	s.nsteps = 0
	if cap(s.comp) < w {
		s.comp = make([]time.Duration, w)
	} else {
		s.comp = s.comp[:w]
	}
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
	t.top, t.floor = 0, 0
}

// boundFrom computes the level bounds for the window order: for every
// position from p on it evaluates each subset once — exact reward, clamped
// level, and whether it meets the query's deadline from base — and then
// rebuilds rest over the whole window (positions before p keep the values
// the previous call left; the caller guarantees they share its
// fingerprint).
//
// Why skipping below the bound is exact. An insert touches one (step,
// level) cell only, so a cell's content is a function of the inserts into
// it. The skip transition re-inserts every non-empty level one step on,
// so the final top level is at least top[i] for every step i. Every
// entry's availability is >= base and completion is monotone in
// availability, so a query adds at most qmax to a level, and a cell
// (i, L) with L+rest[i] < top[i] has no descendant in the final top
// level — the only cell a plan is extracted from. Such cells feed only
// cells of the same kind, so dropping them, and every candidate landing
// in one, leaves all other cells with the identical insert sequence in
// every mode (Vanilla, DisablePrune, beam).
func (s *dpScratch) boundFrom(p int, queries []QueryInfo, order []int, base []time.Duration, lay layout, exec []time.Duration, r Rewarder, perQueryLevels int) {
	n, nsub := len(order), len(s.subsets)
	s.qrw, s.qlvl = grown(s.qrw, n*nsub), grown(s.qlvl, n*nsub)
	s.qmax, s.rest = grown(s.qmax, n), grown(s.rest, n+1)
	for i := p; i < n; i++ {
		q := queries[order[i]]
		best := 0
		for si, sub := range s.subsets {
			lvl := -1
			if lay.completion(base, exec, sub, s.comp) <= q.Deadline {
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

// invalidateFrom recycles the entries of steps[i:] and marks them
// invalid. Entries in the surviving prefix never reference freed ones:
// back-pointers only point to earlier steps.
func (s *dpScratch) invalidateFrom(i int) {
	if i >= s.nsteps {
		return
	}
	for j := i; j < s.nsteps; j++ {
		t := &s.steps[j]
		for l := range t.levels {
			s.free = append(s.free, t.levels[l].ids...)
			t.levels[l].ids = t.levels[l].ids[:0]
			t.levels[l].worst = -1
		}
	}
	s.nsteps = i
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

// sameRewarder reports whether two Rewarders are the same value, the
// last leg of the reuse fingerprint. Dynamic types must match and be
// comparable before the interfaces are compared, so non-comparable
// implementations (closures over slices, say) never panic — they simply
// never fingerprint as equal.
func sameRewarder(a, b Rewarder) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	ta := reflect.TypeOf(a)
	if ta != reflect.TypeOf(b) || !ta.Comparable() {
		return false
	}
	return a == b
}

// grown returns s extended to at least n elements, contents kept.
func grown[T any](s []T, n int) []T {
	if len(s) >= n {
		return s
	}
	return append(s, make([]T, n-len(s))...)
}

func durEq(a, b []time.Duration) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func intEq(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
