package adapt

import (
	"math"
	"testing"
	"time"

	"schemble/internal/rng"
)

// The ref* declarations below are the quantile sketch the engine kept its
// live profiles in before they moved onto obsv.Histogram, kept verbatim
// (names go to the ref* twin; Merge and Reset, which no reference reads,
// are left out; nothing else) as the identity reference, with
// refInflation, the engine's inflation rule over it. Bucket slot i >= 1
// covers [50µs·1.22^(i-1), 50µs·1.22^i) by a logarithm, and a quantile
// interpolates rank ceil(q*n) inside its slot. The engine must reproduce
// every bit of what the planner read from it.

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
	// refSketchBuckets is the number of geometric buckets between the
	// underflow and overflow slots.
	refSketchBuckets = 64
	// refSketchSlots = underflow + buckets + overflow.
	refSketchSlots = refSketchBuckets + 2
	// refSketchMinNS is the upper bound of the underflow bucket in
	// nanoseconds (50µs).
	refSketchMinNS = 50e3
	// refSketchGrowth is the per-bucket geometric growth factor; it is also
	// the sketch's relative value-error bound for in-range data.
	refSketchGrowth = 1.22
)

// refSketch is a fixed-size mergeable quantile sketch over durations. The
// zero value is an empty sketch ready for use. refSketch is a plain value
// with no internal pointers, so embedding arrays of sketches costs no
// allocations; it carries no lock — the owning Engine serializes access.
type refSketch struct {
	counts [refSketchSlots]uint64
	n      uint64
	// sum accumulates inserted nanoseconds with wrapping uint64
	// arithmetic (wrapping keeps Merge exactly associative even under
	// adversarial fuzz inputs; Mean is only meaningful in sane ranges).
	sum uint64
}

// refBucketOf maps a duration to its slot. Negative and sub-range values
// land in the underflow slot, values past the covered range in the
// overflow slot. The mapping is monotone in d, which is what the
// quantile error-bound argument needs — exact boundary placement under
// float rounding is irrelevant.
func refBucketOf(d time.Duration) int {
	v := float64(d)
	if v < refSketchMinNS {
		return 0
	}
	idx := 1 + int(math.Log(v/refSketchMinNS)/math.Log(refSketchGrowth))
	if idx > refSketchBuckets {
		return refSketchBuckets + 1
	}
	return idx
}

// refBucketBounds returns slot i's value range in nanoseconds. The
// underflow slot spans [0, refSketchMinNS); the overflow slot is degenerate
// at the top of the covered range so overflow quantiles report the
// largest representable bound rather than inventing a value.
func refBucketBounds(i int) (lo, hi float64) {
	switch {
	case i == 0:
		return 0, refSketchMinNS
	case i > refSketchBuckets:
		b := refSketchMinNS * math.Pow(refSketchGrowth, refSketchBuckets)
		return b, b
	default:
		lo = refSketchMinNS * math.Pow(refSketchGrowth, float64(i-1))
		return lo, lo * refSketchGrowth
	}
}

// Insert adds one observation. Never allocates.
func (s *refSketch) Insert(d time.Duration) {
	s.counts[refBucketOf(d)]++
	s.n++
	if d > 0 {
		s.sum += uint64(d)
	}
}

// Count reports the number of inserted observations.
func (s *refSketch) Count() uint64 { return s.n }

// Mean reports the arithmetic mean of inserted observations (0 when
// empty). Exact up to uint64 wrap-around of the running sum.
func (s *refSketch) Mean() time.Duration {
	if s.n == 0 {
		return 0
	}
	return time.Duration(s.sum / s.n)
}

// Quantile returns an estimate of the q-quantile (rank ceil(q*n), at
// least 1) of the inserted multiset. The returned value lies in the same
// bucket as the true order statistic, linearly interpolated by rank
// position within the bucket, so it is monotone non-decreasing in q and
// within a factor refSketchGrowth of the true value for in-range data.
// Returns 0 on an empty sketch. Never allocates.
func (s *refSketch) Quantile(q float64) time.Duration {
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
	for i := 0; i < refSketchSlots; i++ {
		c := s.counts[i]
		if c == 0 {
			continue
		}
		if cum+c >= rank {
			lo, hi := refBucketBounds(i)
			frac := float64(rank-cum) / float64(c)
			return time.Duration(lo + (hi-lo)*frac)
		}
		cum += c
	}
	// Unreachable: rank <= n and the counts sum to n.
	lo, _ := refBucketBounds(refSketchSlots - 1)
	return time.Duration(lo)
}

// refInflation is the engine's inflationLocked over a reference sketch.
func refInflation(s *refSketch, profiled time.Duration) float64 {
	if s.Count() < minSamples || profiled <= 0 {
		return 1
	}
	infl := float64(s.Quantile(costQuantile)) / float64(profiled)
	return min(max(infl, minInflation), maxInflation)
}

// genDurations draws n durations log-uniformly across the live profile's
// covered range (with margin away from both ends, so no sample lands in
// bucket 0, whose lower end the sketch took as 0).
func genDurations(src *rng.Source, n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		// 100µs .. ~5s, log-uniform.
		e := src.Uniform(math.Log(100e3), math.Log(5e9))
		out[i] = time.Duration(math.Exp(e))
	}
	return out
}

// TestEngineMatchesReferenceSketch feeds the property suite's 1000 seeded
// streams to an engine of two models and to a reference sketch per model,
// and requires Quantile, Inflation and ExecInto to read the reference's
// every bit: after each observation for the planner's inputs, and at the
// end for every quantile the property suite reads.
func TestEngineMatchesReferenceSketch(t *testing.T) {
	qs := []float64{0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1}
	for seed := uint64(0); seed < propertyCases; seed++ {
		src := rng.New(seed)
		vals := genDurations(src, 1+src.Intn(200))
		// Profiles spread from 1ms to 1s, so inflation runs through both
		// clamps and the band between them.
		profiled := []time.Duration{
			time.Duration(math.Exp(src.Uniform(math.Log(1e6), math.Log(1e9)))),
			time.Duration(math.Exp(src.Uniform(math.Log(1e6), math.Log(1e9)))),
		}
		base := []time.Duration{profiled[0] + time.Millisecond, profiled[1] + time.Millisecond}
		e := New(Config{Enable: true}, profiled, base)
		var ref [2]refSketch
		exec := make([]time.Duration, 2)
		for i, v := range vals {
			k := i % 2
			e.ObserveLatency(time.Duration(i)*time.Millisecond, k, v)
			ref[k].Insert(v)
			want := refInflation(&ref[k], profiled[k])
			if got := e.Inflation(k); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d obs %d: Inflation(%d) = %v, reference %v", seed, i, k, got, want)
			}
			e.ExecInto(exec)
			for j := range exec {
				if want := time.Duration(float64(base[j]) * refInflation(&ref[j], profiled[j])); exec[j] != want {
					t.Fatalf("seed %d obs %d: ExecInto[%d] = %v, reference %v", seed, i, j, exec[j], want)
				}
			}
		}
		snap := e.Snapshot()
		for k := range ref {
			for _, q := range qs {
				if got, want := e.Quantile(k, q), ref[k].Quantile(q); got != want {
					t.Fatalf("seed %d: Quantile(%d, %v) = %v, reference %v", seed, k, q, got, want)
				}
			}
			m := snap.Models[k]
			if m.Samples != ref[k].Count() || m.Mean != ref[k].Mean() || m.P50 != ref[k].Quantile(0.5) ||
				m.P90 != ref[k].Quantile(0.9) || m.P99 != ref[k].Quantile(0.99) {
				t.Fatalf("seed %d: Snapshot model %d = %+v, reference n %d mean %v p50 %v p90 %v p99 %v", seed, k, m,
					ref[k].Count(), ref[k].Mean(), ref[k].Quantile(0.5), ref[k].Quantile(0.9), ref[k].Quantile(0.99))
			}
		}
	}
}
