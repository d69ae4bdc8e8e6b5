package trace

import (
	"hash/fnv"
	"time"

	"schemble/internal/dataset"
	"schemble/internal/rng"
)

// Stream derives an independent seeded sub-stream from a base seed and a
// label. Generators that draw several random quantities (arrival gaps,
// sample picks, deadlines) must give each its own labeled stream:
// sharing one rng.Source couples the quantities — swapping a constant
// deadline policy for a random one would silently shift every subsequent
// gap draw, changing the whole trace rather than just the deadlines (the
// historical failure mode of Poisson-style generators, pinned by the
// stream-independence regression test). Two labels never collide in
// practice: the label is hashed (FNV-1a) and mixed into the seed through
// a splitmix-style multiply, so the derived states are decorrelated even
// for adjacent seeds.
func Stream(seed uint64, label string) *rng.Source {
	h := fnv.New64a()
	_, _ = h.Write([]byte(label))
	x := (seed + 0x9e3779b97f4a7c15) ^ (h.Sum64() * 0xbf58476d1ce4e5b9)
	return rng.New(x)
}

// DifficultyShiftConfig configures a drifting-difficulty trace: arrivals
// draw from an easy pool early and shift linearly toward a hard pool
// between ShiftStart and ShiftEnd — the workload-mix drift that stales a
// frozen difficulty-score calibration.
type DifficultyShiftConfig struct {
	// RatePerSec is the mean Poisson arrival rate; Spacing, when
	// positive, replaces it with fixed inter-arrival gaps (for
	// deterministic equivalence traces).
	RatePerSec float64
	Spacing    time.Duration
	// N is the number of arrivals.
	N int
	// Samples is the serving pool Arrival.SampleIdx indexes into;
	// EasyIdx/HardIdx are index pools (into Samples) for the two mix
	// components.
	Samples []*dataset.Sample
	EasyIdx []int
	HardIdx []int
	// ShiftStart/ShiftEnd bound the linear mix shift: P(hard) is 0
	// before ShiftStart and 1 after ShiftEnd.
	ShiftStart time.Duration
	ShiftEnd   time.Duration
	// Deadline assigns relative deadlines.
	Deadline DeadlinePolicy
	Seed     uint64
}

// DifficultyShift generates the drifting-mix trace. Gap, mix and
// deadline draws come from three independent Stream sub-streams, so
// composing this generator with any deadline policy (or changing the
// policy) never perturbs arrival times or sample picks.
func DifficultyShift(cfg DifficultyShiftConfig) *Trace {
	if (cfg.RatePerSec <= 0 && cfg.Spacing <= 0) || cfg.N <= 0 ||
		len(cfg.EasyIdx) == 0 || len(cfg.HardIdx) == 0 || len(cfg.Samples) == 0 {
		panic("trace: bad DifficultyShift config")
	}
	gaps := Stream(cfg.Seed, "difficulty-shift/gaps")
	mix := Stream(cfg.Seed, "difficulty-shift/mix")
	dl := Stream(cfg.Seed, "difficulty-shift/deadline")
	t := &Trace{}
	var now time.Duration
	for i := 0; i < cfg.N; i++ {
		if cfg.Spacing > 0 {
			now += cfg.Spacing
		} else {
			now += time.Duration(gaps.Exponential(cfg.RatePerSec) * float64(time.Second))
		}
		var pHard float64
		switch {
		case now <= cfg.ShiftStart:
			pHard = 0
		case now >= cfg.ShiftEnd:
			pHard = 1
		default:
			pHard = float64(now-cfg.ShiftStart) / float64(cfg.ShiftEnd-cfg.ShiftStart)
		}
		pool := cfg.EasyIdx
		if mix.Bool(pHard) {
			pool = cfg.HardIdx
		}
		idx := pool[mix.Intn(len(pool))]
		t.Arrivals = append(t.Arrivals, Arrival{
			SampleIdx: idx,
			At:        now,
			Deadline:  now + cfg.Deadline.Relative(cfg.Samples[idx], dl),
		})
	}
	t.Horizon = now
	return t
}
