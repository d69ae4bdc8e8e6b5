package adapt

import (
	"math"
	"sort"
	"testing"
	"time"

	"schemble/internal/rng"
)

// propertyCases is the number of deterministic seeded instances each
// property below is checked against. The generator is seed-indexed (not
// testing/quick), so a failure reproduces exactly by seed.
const propertyCases = 1000

// genDurations draws n durations log-uniformly across the sketch's
// covered range (with margin away from both ends so the rank-error bound
// applies cleanly).
func genDurations(src *rng.Source, n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		// 100µs .. ~5s, log-uniform.
		e := src.Uniform(math.Log(100e3), math.Log(5e9))
		out[i] = time.Duration(math.Exp(e))
	}
	return out
}

// TestSketchQuantileMonotoneAndBounded pins the sketch's two contract
// properties over 1000 seeded multisets: Quantile is monotone
// non-decreasing in q, and for in-range data the estimate lies within a
// factor sketchGrowth of the true order statistic at rank ceil(q*n).
func TestSketchQuantileMonotoneAndBounded(t *testing.T) {
	qs := []float64{0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1}
	const tol = sketchGrowth * (1 + 1e-9)
	for seed := uint64(0); seed < propertyCases; seed++ {
		src := rng.New(seed)
		vals := genDurations(src, 1+src.Intn(200))
		var s Sketch
		for _, v := range vals {
			s.Insert(v)
		}
		if s.Count() != uint64(len(vals)) {
			t.Fatalf("seed %d: count %d != %d", seed, s.Count(), len(vals))
		}
		sorted := append([]time.Duration(nil), vals...)
		sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
		prev := time.Duration(-1)
		for _, q := range qs {
			got := s.Quantile(q)
			if got < prev {
				t.Fatalf("seed %d: Quantile(%v)=%v < Quantile at lower q %v (not monotone)",
					seed, q, got, prev)
			}
			prev = got
			rank := int(math.Ceil(q * float64(len(sorted))))
			if rank < 1 {
				rank = 1
			}
			truth := sorted[rank-1]
			ratio := float64(got) / float64(truth)
			if ratio > tol || ratio < 1/tol {
				t.Fatalf("seed %d: Quantile(%v)=%v vs true order statistic %v (ratio %.4f beyond factor %v)",
					seed, q, got, truth, ratio, sketchGrowth)
			}
		}
	}
}

// TestSketchMergeCommutativeAssociative pins exact merge algebra: the
// sketch is a counter vector, so merge order can never change the result
// — the property that lets per-replica sketches fold into per-model (and
// fleet-level) views without ordering concerns.
func TestSketchMergeCommutativeAssociative(t *testing.T) {
	for seed := uint64(0); seed < propertyCases; seed++ {
		src := rng.New(seed)
		var a, b, c Sketch
		for _, v := range genDurations(src, 1+src.Intn(60)) {
			a.Insert(v)
		}
		for _, v := range genDurations(src, 1+src.Intn(60)) {
			b.Insert(v)
		}
		for _, v := range genDurations(src, 1+src.Intn(60)) {
			c.Insert(v)
		}

		ab, ba := a, b
		ab.Merge(&b)
		ba.Merge(&a)
		if ab != ba {
			t.Fatalf("seed %d: merge not commutative", seed)
		}

		left := a // (a+b)+c
		left.Merge(&b)
		left.Merge(&c)
		bc := b // a+(b+c)
		bc.Merge(&c)
		right := a
		right.Merge(&bc)
		if left != right {
			t.Fatalf("seed %d: merge not associative", seed)
		}
	}
}

// TestDetectorNoFlapStationary pins the no-flap property over 1000
// seeded stationary workloads: latencies jittering strictly inside the
// tolerance band (±30% of profiled against a ±50% band) and scores
// jittering inside the score band (0.5±0.05 against a ±0.15 band) can
// never move a window mean out of band, so the detector must emit zero
// drift events and leave every signal inactive — regardless of arrival
// spacing, window phase, or jitter realization.
func TestDetectorNoFlapStationary(t *testing.T) {
	profiled := []time.Duration{40 * time.Millisecond, 90 * time.Millisecond}
	for seed := uint64(0); seed < propertyCases; seed++ {
		src := rng.New(seed)
		e := New(Config{Enable: true}, profiled, profiled, nil)
		now := time.Duration(0)
		n := 200 + src.Intn(400)
		for i := 0; i < n; i++ {
			now += time.Duration(src.Uniform(5e6, 150e6)) // 5..150ms: ~13 per model and window
			k := src.Intn(len(profiled))
			lat := time.Duration(float64(profiled[k]) * src.Uniform(0.7, 1.3))
			e.ObserveLatency(now, k, 0, lat)
			e.ObserveScore(now, src.Uniform(0.45, 0.55))
		}
		snap := e.Snapshot()
		if snap.LatencyEvents != 0 || snap.ScoreEvents != 0 {
			t.Fatalf("seed %d: stationary stream produced drift events (latency %d, score %d)",
				seed, snap.LatencyEvents, snap.ScoreEvents)
		}
		if snap.ScoreDrift {
			t.Fatalf("seed %d: score drift active on a stationary stream", seed)
		}
		for k, m := range snap.Models {
			if m.Drift {
				t.Fatalf("seed %d: latency drift active on model %d on a stationary stream", seed, k)
			}
		}
		if got := e.ActiveDrift(); got != nil {
			t.Fatalf("seed %d: ActiveDrift() = %v, want nil", seed, got)
		}
	}
}
