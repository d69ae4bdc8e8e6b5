package core

import (
	"time"

	"schemble/internal/ensemble"
)

// Capacity is the scheduler's view of fleet availability once models run
// as replica pools: Capacity[k][r] is the absolute (virtual) time replica
// r of model k finishes the work already committed to it (values in the
// past mean "idle now"). A model with a single replica degenerates to the
// scalar busy-until the schedulers used before replica pools existed, and
// every scheduler in this package is bit-identical to its scalar
// predecessor in that case.
//
// Zero-replica convention: a model whose pool is empty (len(Capacity[k])
// == 0) is planned as a SINGLE IDLE replica — the same "missing means
// one" convention serve.Config.Replicas documents, so the simulator, the
// runtime and hand-built capacities agree. A caller that wants a model
// excluded from planning must instead push its slots past any feasible
// deadline, the way the serve runtime encodes open breakers and crash
// windows.
type Capacity [][]time.Duration

// M returns the number of models.
func (c Capacity) M() int { return len(c) }

// layout maps the flattened replica-slot vector back to models: model k
// owns slots[off[k]:off[k+1]], kept sorted ascending so slot off[k] is
// always the earliest-available replica (the root of that model's
// min-heap, stored flat so Pareto dominance stays a plain element-wise
// comparison).
type layout struct{ off []int }

func (l layout) m() int { return len(l.off) - 1 }

// flatten clamps every replica slot to now (a replica free in the past is
// free now), sorts each model's slots ascending, and concatenates the
// segments model-major. A model with no declared replicas gets one idle
// slot (the zero-replica convention documented on Capacity). With one
// replica per model the result is exactly the normalized per-model
// availability vector the schedulers consumed before pools.
//
// flatten allocates fresh buffers on every call; the scheduler hot paths
// use flattenScratch instead, which reuses its output buffers across
// calls.
func flatten(now time.Duration, c Capacity) ([]time.Duration, layout) {
	flat, off := flattenInto(nil, nil, now, c)
	return flat, layout{off: off}
}

// flattenScratch reuses flatten's output buffers across calls so a
// scheduler invoked per decision performs no allocations for capacity
// normalization. The returned slices are owned by the scratch and
// overwritten by the next call.
type flattenScratch struct {
	flat []time.Duration
	off  []int
}

func (fs *flattenScratch) flatten(now time.Duration, c Capacity) ([]time.Duration, layout) {
	fs.flat, fs.off = flattenInto(fs.flat[:0], fs.off[:0], now, c)
	return fs.flat, layout{off: fs.off}
}

// flattenInto is flatten's allocation-free core: it appends the clamped,
// per-model-sorted slot vector to flat and the segment offsets to off and
// returns both (grown as needed). Segments are sorted with an insertion
// sort — replica pools are small, and the sorted *values* are identical
// to any other ascending sort, so the flattened vector is bit-identical
// to the sort.Slice the allocating path used historically.
func flattenInto(flat []time.Duration, off []int, now time.Duration, c Capacity) ([]time.Duration, []int) {
	total := 0
	for _, slots := range c {
		off = append(off, total)
		n := len(slots)
		if n == 0 {
			n = 1
		}
		total += n
	}
	off = append(off, total)
	for k, slots := range c {
		if len(slots) == 0 {
			// Zero-replica convention: plan as one idle replica.
			flat = append(flat, now)
			continue
		}
		segStart := off[k]
		for _, a := range slots {
			if a < now {
				a = now
			}
			// Insertion sort: shift the sorted prefix right until a fits.
			i := len(flat)
			flat = append(flat, a)
			for i > segStart && flat[i-1] > a {
				flat[i] = flat[i-1]
				i--
			}
			flat[i] = a
		}
	}
	return flat, off
}

// completionOf computes when query q would finish executing subset s given
// the flattened slot vector avail: each chosen model runs the task on its
// earliest-available replica, whose new finish time is re-inserted in
// sorted position within the model's segment. A model of q.Sunk already
// runs, or ran, q's task (the sunk rule): it takes no slot, and a subset
// holding one completes no earlier than q.SunkBy. dst (len(avail)) is
// overwritten with the resulting availability; the return value is the
// completion time, i.e. the latest finish among the chosen models.
func (l layout) completionOf(q *QueryInfo, avail, exec []time.Duration, s ensemble.Subset, dst []time.Duration) time.Duration {
	copy(dst, avail)
	var done time.Duration
	if s&q.Sunk != ensemble.Empty {
		done = q.SunkBy
	}
	run := s &^ q.Sunk
	for k := 0; k < l.m(); k++ {
		if !run.Contains(k) {
			continue
		}
		seg := dst[l.off[k]:l.off[k+1]]
		finish := seg[0] + exec[k]
		i := 0
		for i+1 < len(seg) && seg[i+1] < finish {
			seg[i] = seg[i+1]
			i++
		}
		seg[i] = finish
		if finish > done {
			done = finish
		}
	}
	return done
}
