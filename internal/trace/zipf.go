package trace

import (
	"math"
	"time"

	"schemble/internal/dataset"
	"schemble/internal/rng"
)

// ZipfianConfig configures a repeat-heavy trace whose sample popularity
// follows a Zipf law: rank r (after a seeded shuffle of the pool) is
// drawn with probability proportional to 1/(r+V)^S. This is the
// millions-of-users shape the result cache is built for — a small head
// of samples dominates traffic while the tail stays cold.
type ZipfianConfig struct {
	// RatePerSec is the mean arrival rate.
	RatePerSec float64
	// N is the number of arrivals to generate.
	N int
	// Samples is the pool; popularity ranks are assigned by a seeded
	// permutation of it.
	Samples []*dataset.Sample
	// Deadline assigns relative deadlines.
	Deadline DeadlinePolicy
	// S is the Zipf exponent (skew; default 1.1 — higher concentrates
	// more traffic on the head). V offsets the rank (default 1).
	S    float64
	V    float64
	Seed uint64
}

// Zipfian generates a Zipf-popularity trace: repeated queries over a
// shuffled rank order, with Poisson arrival times.
func Zipfian(cfg ZipfianConfig) *Trace {
	if cfg.RatePerSec <= 0 || cfg.N <= 0 || len(cfg.Samples) == 0 {
		panic("trace: bad Zipfian config")
	}
	if cfg.S <= 0 {
		cfg.S = 1.1
	}
	if cfg.V <= 0 {
		cfg.V = 1
	}
	src := rng.New(cfg.Seed ^ 0x21bf)
	// rank[r] is the sample index holding popularity rank r; cum[r] is the
	// cumulative (unnormalized) Zipf mass through rank r.
	rank := src.Perm(len(cfg.Samples))
	cum := make([]float64, len(rank))
	total := 0.0
	for r := range rank {
		total += 1 / math.Pow(float64(r)+cfg.V, cfg.S)
		cum[r] = total
	}
	t := &Trace{}
	var now time.Duration
	for i := 0; i < cfg.N; i++ {
		now += time.Duration(src.Exponential(cfg.RatePerSec) * float64(time.Second))
		// Invert the cumulative mass by linear scan: the head ranks carry
		// almost all of it, so the expected scan length is short.
		u := src.Float64() * total
		r := len(cum) - 1
		for j, c := range cum {
			if u <= c {
				r = j
				break
			}
		}
		idx := rank[r]
		t.Arrivals = append(t.Arrivals, Arrival{
			SampleIdx: idx,
			At:        now,
			Deadline:  now + cfg.Deadline.Relative(cfg.Samples[idx], src),
		})
	}
	t.Horizon = now
	return t
}
