package adapt

import (
	"testing"
	"time"

	"schemble/internal/rng"
)

// propertyCases is the number of deterministic seeded instances each
// property below is checked against. The generator is seed-indexed (not
// testing/quick), so a failure reproduces exactly by seed.
const propertyCases = 1000

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
		e := New(Config{Enable: true}, profiled, profiled)
		now := time.Duration(0)
		n := 200 + src.Intn(400)
		for i := 0; i < n; i++ {
			now += time.Duration(src.Uniform(5e6, 150e6)) // 5..150ms: ~13 per model and window
			k := src.Intn(len(profiled))
			lat := time.Duration(float64(profiled[k]) * src.Uniform(0.7, 1.3))
			e.ObserveLatency(now, k, lat)
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
