// Package adapt is the online-adaptation layer: drift-tolerant latency
// profiles kept as mergeable quantile sketches, which scale the planner's
// cost model, and a windowed drift detector over observed-vs-profiled
// latency and over the difficulty-score distribution.
//
// The package follows the engine-agnostic qos/rcache pattern: every
// method takes the caller's virtual clock, there are no goroutines, no
// timers, no wall-clock reads and no RNG (enforced by the enginepure
// analyzer), so the concurrent runtime (serve) and the event simulator
// (sim) share it verbatim and the sim<->serve equivalence tests extend
// to adaptation. Package-level state is absent by construction; all
// state lives in an Engine guarded by one mutex.
package adapt

import (
	"math"
	"time"
)

// The sketch is a fixed-size histogram over geometrically growing
// latency buckets. Merging two sketches is element-wise uint64 counter
// addition, which makes Merge exactly commutative and associative — the
// property that lets per-replica sketches fold into per-model views (and
// fleet-level views, eventually) without any ordering concerns. The
// price is a bounded relative value error: a reported quantile lies in
// the same bucket as the true order statistic of the inserted multiset,
// so it is within a factor sketchGrowth of it (for values inside the
// covered range). With growth 1.22 over 64 buckets the sketch covers
// 50µs .. ~13s — comfortably around any model service time this system
// schedules — in a few hundred bytes with zero allocation on insert,
// merge and query.
const (
	// sketchBuckets is the number of geometric buckets between the
	// underflow and overflow slots.
	sketchBuckets = 64
	// sketchSlots = underflow + buckets + overflow.
	sketchSlots = sketchBuckets + 2
	// sketchMinNS is the upper bound of the underflow bucket in
	// nanoseconds (50µs).
	sketchMinNS = 50e3
	// sketchGrowth is the per-bucket geometric growth factor; it is also
	// the sketch's relative value-error bound for in-range data.
	sketchGrowth = 1.22
)

// Sketch is a fixed-size mergeable quantile sketch over durations. The
// zero value is an empty sketch ready for use. Sketch is a plain value
// with no internal pointers, so embedding arrays of sketches costs no
// allocations; it carries no lock — the owning Engine serializes access.
type Sketch struct {
	counts [sketchSlots]uint64
	n      uint64
	// sum accumulates inserted nanoseconds with wrapping uint64
	// arithmetic (wrapping keeps Merge exactly associative even under
	// adversarial fuzz inputs; Mean is only meaningful in sane ranges).
	sum uint64
}

// bucketOf maps a duration to its slot. Negative and sub-range values
// land in the underflow slot, values past the covered range in the
// overflow slot. The mapping is monotone in d, which is what the
// quantile error-bound argument needs — exact boundary placement under
// float rounding is irrelevant.
func bucketOf(d time.Duration) int {
	v := float64(d)
	if v < sketchMinNS {
		return 0
	}
	idx := 1 + int(math.Log(v/sketchMinNS)/math.Log(sketchGrowth))
	if idx > sketchBuckets {
		return sketchBuckets + 1
	}
	return idx
}

// bucketBounds returns slot i's value range in nanoseconds. The
// underflow slot spans [0, sketchMinNS); the overflow slot is degenerate
// at the top of the covered range so overflow quantiles report the
// largest representable bound rather than inventing a value.
func bucketBounds(i int) (lo, hi float64) {
	switch {
	case i == 0:
		return 0, sketchMinNS
	case i > sketchBuckets:
		b := sketchMinNS * math.Pow(sketchGrowth, sketchBuckets)
		return b, b
	default:
		lo = sketchMinNS * math.Pow(sketchGrowth, float64(i-1))
		return lo, lo * sketchGrowth
	}
}

// Insert adds one observation. Never allocates.
func (s *Sketch) Insert(d time.Duration) {
	s.counts[bucketOf(d)]++
	s.n++
	if d > 0 {
		s.sum += uint64(d)
	}
}

// Merge folds o into s: element-wise counter addition, so for any
// sketches a, b, c built from disjoint streams, merge order never
// changes the result (commutative and associative exactly, not just
// approximately). Never allocates.
func (s *Sketch) Merge(o *Sketch) {
	for i := range s.counts {
		s.counts[i] += o.counts[i]
	}
	s.n += o.n
	s.sum += o.sum
}

// Count reports the number of inserted observations.
func (s *Sketch) Count() uint64 { return s.n }

// Mean reports the arithmetic mean of inserted observations (0 when
// empty). Exact up to uint64 wrap-around of the running sum.
func (s *Sketch) Mean() time.Duration {
	if s.n == 0 {
		return 0
	}
	return time.Duration(s.sum / s.n)
}

// Quantile returns an estimate of the q-quantile (rank ceil(q*n), at
// least 1) of the inserted multiset. The returned value lies in the same
// bucket as the true order statistic, linearly interpolated by rank
// position within the bucket, so it is monotone non-decreasing in q and
// within a factor sketchGrowth of the true value for in-range data.
// Returns 0 on an empty sketch. Never allocates.
func (s *Sketch) Quantile(q float64) time.Duration {
	if s.n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(s.n)))
	if rank < 1 {
		rank = 1
	}
	if rank > s.n {
		rank = s.n
	}
	var cum uint64
	for i := 0; i < sketchSlots; i++ {
		c := s.counts[i]
		if c == 0 {
			continue
		}
		if cum+c >= rank {
			lo, hi := bucketBounds(i)
			frac := float64(rank-cum) / float64(c)
			return time.Duration(lo + (hi-lo)*frac)
		}
		cum += c
	}
	// Unreachable: rank <= n and the counts sum to n.
	lo, _ := bucketBounds(sketchSlots - 1)
	return time.Duration(lo)
}

// Reset empties the sketch in place.
func (s *Sketch) Reset() {
	*s = Sketch{}
}
