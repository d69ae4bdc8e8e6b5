package obsv

import (
	"encoding/binary"
	"math"
	"sort"
	"testing"
	"time"

	"schemble/internal/rng"
)

// geometries are the histograms the runtime builds: the observer's
// latency histograms, the serving runtime's turn-event, pass-time,
// timer-overshoot and starvation histograms (internal/serve), and the
// adaptation layer's live profiles (internal/adapt).
var geometries = []struct {
	min     time.Duration
	growth  float64
	buckets int
}{
	{defaultHistMin, defaultHistGrowth, defaultHistBuckets},
	{time.Second, 2, 12},
	{5 * time.Microsecond, 1.6, 24},
	{5 * time.Microsecond, 1.5, 21},
	{10 * time.Microsecond, 1.6, 24},
	{50 * time.Microsecond, 1.22, 65},
}

// TestHistogramQuantileMonotoneAndBounded pins the quantile rule's two
// contract properties over 1000 seeded multisets per geometry: Quantile is
// monotone non-decreasing in q, and for data above the first bound and
// below the last the estimate lies within a factor growth of the true
// order statistic at rank ceil(q*n) (less the truncation to a whole
// nanosecond). The live read matches the snapshot's.
func TestHistogramQuantileMonotoneAndBounded(t *testing.T) {
	qs := []float64{0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1}
	for _, g := range geometries {
		tol := g.growth * (1 + 1e-9)
		lo := math.Log(float64(g.min)) + 0.5*math.Log(g.growth)
		hi := math.Log(float64(g.min)) + (float64(g.buckets)-1.5)*math.Log(g.growth)
		for seed := uint64(0); seed < 1000; seed++ {
			src := rng.New(seed)
			vals := make([]time.Duration, 1+src.Intn(200))
			h := NewHistogram(g.min, g.growth, g.buckets)
			for i := range vals {
				vals[i] = time.Duration(math.Exp(src.Uniform(lo, hi)))
				h.Observe(vals[i])
			}
			s := h.Snapshot()
			if s.Count != uint64(len(vals)) {
				t.Fatalf("%v seed %d: count %d != %d", g, seed, s.Count, len(vals))
			}
			sort.Slice(vals, func(a, b int) bool { return vals[a] < vals[b] })
			prev := time.Duration(-1)
			for _, q := range qs {
				got := s.Quantile(q)
				if live := h.Quantile(q); live != got {
					t.Fatalf("%v seed %d: live Quantile(%v) = %v, snapshot %v", g, seed, q, live, got)
				}
				if got < prev {
					t.Fatalf("%v seed %d: Quantile(%v)=%v < Quantile at lower q %v (not monotone)",
						g, seed, q, got, prev)
				}
				prev = got
				rank := max(int(math.Ceil(q*float64(len(vals)))), 1)
				truth := float64(vals[rank-1])
				if float64(got) > truth*tol || float64(got)+1 < truth/tol {
					t.Fatalf("%v seed %d: Quantile(%v)=%v vs true order statistic %v (beyond factor %v)",
						g, seed, q, got, time.Duration(truth), g.growth)
				}
			}
		}
	}
}

// FuzzHistogram drives every runtime geometry with arbitrary byte-derived
// duration streams (including negative, zero, and out-of-range values) and
// asserts its structural invariants: count bookkeeping, the smallest
// sample, quantile monotonicity in q, quantile-in-range for any non-empty
// histogram, and the live read agreeing with the snapshot. The seed corpus
// under testdata/fuzz pins the boundary shapes (empty, bucket 0, overflow,
// bucket edges, mixed signs); `make fuzz` extends it with a short
// randomized burst.
func FuzzHistogram(f *testing.F) {
	seed := func(vals ...int64) []byte {
		b := make([]byte, 8*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint64(b[8*i:], uint64(v))
		}
		return b
	}
	f.Add([]byte{})
	f.Add(seed(0))
	f.Add(seed(-1, 1))
	f.Add(seed(int64(time.Millisecond), int64(time.Second), int64(time.Minute)))
	f.Add(seed(49_999, 50_000, 50_001))
	f.Add(seed(1<<62, -1<<62, 49_999, 50_000))
	f.Add(seed(100_000, 122_000, 148_840, 181_584))

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, g := range geometries {
			h := NewHistogram(g.min, g.growth, g.buckets)
			var n uint64
			low := time.Duration(math.MaxInt64)
			for i := 0; i+8 <= len(data) && i < 8*4096; i += 8 {
				d := time.Duration(binary.LittleEndian.Uint64(data[i:]))
				h.Observe(d)
				low = min(low, max(d, 0))
				n++
			}
			s := h.Snapshot()
			if s.Count != n || h.Count() != n {
				t.Fatalf("%v: Count = %d (live %d) after %d observations", g, s.Count, h.Count(), n)
			}
			if n == 0 {
				if s.Quantile(0.5) != 0 || h.Quantile(0.5) != 0 || s.Mean() != 0 || s.Min != 0 {
					t.Fatalf("%v: empty histogram reads %+v", g, s)
				}
				continue
			}
			if s.Min != low {
				t.Fatalf("%v: Min = %v, want %v", g, s.Min, low)
			}
			// Quantile must be monotone in q (including out-of-range q, which
			// clamps) and always within the histogram's representable range.
			top := time.Duration(s.Bounds[len(s.Bounds)-1])
			prev := time.Duration(-1)
			for _, q := range []float64{-1, 0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1, 2} {
				got := s.Quantile(q)
				if live := h.Quantile(q); live != got {
					t.Fatalf("%v: live Quantile(%v) = %v, snapshot %v", g, q, live, got)
				}
				if got < prev {
					t.Fatalf("%v: Quantile(%v) = %v < previous %v: not monotone", g, q, got, prev)
				}
				prev = got
				if got < 0 || got > top {
					t.Fatalf("%v: Quantile(%v) = %v outside representable range [0, %v]", g, q, got, top)
				}
			}
		}
	})
}
