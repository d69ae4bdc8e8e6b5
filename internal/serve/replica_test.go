package serve

import (
	"testing"
	"time"

	"schemble/internal/core"
	"schemble/internal/dataset"
	"schemble/internal/ensemble"
	"schemble/internal/model"
)

// bottleneckRewarder models a profile where acceptable accuracy requires
// the heavyweight model: subsets without it earn nothing, so every served
// request must cross the slow model and throughput is capped by that
// model's replica capacity. This isolates the replica-pool effect the
// scaling test measures.
type bottleneckRewarder struct{ slow int }

func (b bottleneckRewarder) Reward(score float64, s ensemble.Subset) float64 {
	if !s.Contains(b.slow) {
		return 0
	}
	return 0.5 + 0.5*float64(s.Size())/3
}

// slowEnsemble is a three-model fleet whose third member dominates the
// latency budget — the shape where one slow model caps throughput until
// it gets replicas.
func slowEnsemble(seed uint64) *ensemble.Ensemble {
	models := []model.Model{
		model.NewSynthetic(model.SyntheticConfig{
			Name: "fast-a", Task: dataset.Classification, Classes: 2,
			Skill: 0.7, Latency: 20 * time.Millisecond, Jitter: 0.02, Seed: seed + 1,
		}),
		model.NewSynthetic(model.SyntheticConfig{
			Name: "fast-b", Task: dataset.Classification, Classes: 2,
			Skill: 0.75, Latency: 30 * time.Millisecond, Jitter: 0.02, Seed: seed + 2,
		}),
		model.NewSynthetic(model.SyntheticConfig{
			Name: "slow", Task: dataset.Classification, Classes: 2,
			Skill: 0.9, Latency: 200 * time.Millisecond, Jitter: 0.02, Seed: seed + 3,
		}),
	}
	return ensemble.New(dataset.Classification, models, &ensemble.Average{}, nil)
}

func poolSamples(n int) []*dataset.Sample {
	out := make([]*dataset.Sample, n)
	for i := range out {
		out[i] = &dataset.Sample{ID: i, Features: []float64{float64(i)}, Difficulty: 0.3}
	}
	return out
}

// TestServeReplicasSingleBitIdentical pins the compatibility guarantee of
// the replica-pool refactor: a server configured with an explicit
// one-replica pool per model must produce Results bit-identical to the
// zero-config server, request for request — the replica machinery may not
// perturb scheduling, RNG draws, or outputs.
func TestServeReplicasSingleBitIdentical(t *testing.T) {
	_, pooled := twins(t, artifacts(t), 25, func(c *Config) { c.Replicas = []int{1, 1, 1} })
	st := pooled.Stats()
	for k, r := range st.Replicas {
		if r != 1 {
			t.Errorf("model %d replica count = %d, want 1", k, r)
		}
	}
}

// runBottleneckLoad drives one saturating workload against a server whose
// throughput is capped by the slow model and reports (served, missed,
// rejected, virtual elapsed).
func runBottleneckLoad(t *testing.T, replicas []int) (served, missed, rejected uint64, elapsed time.Duration) {
	t.Helper()
	s := New(Config{
		Ensemble:  slowEnsemble(11),
		Scheduler: &core.DP{Delta: 0.01},
		Rewarder:  bottleneckRewarder{slow: 2},
		TimeScale: 0.05,
		Seed:      3,
		Replicas:  replicas,
	})
	// One arrival every 66ms, ~3x the single-replica service rate of the
	// slow model (200ms), so a lone slow replica saturates while four keep
	// up.
	tr := spaced(60, 66*time.Millisecond, 500*time.Millisecond)
	for i, r := range replay(t, s, tr, poolSamples(60)) {
		elapsed = max(elapsed, tr.Arrivals[i].At+r.Latency)
	}
	st := s.Stats()
	return st.Served + st.Degraded, st.Missed, st.Rejected, elapsed
}

// TestServeReplicaPoolThroughput is the scaling acceptance test: giving
// the slowest model four replicas must at least double served requests
// per virtual second on an identical saturating workload, without
// worsening the deadline-miss rate.
func TestServeReplicaPoolThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput measurement needs the full workload")
	}
	served1, missed1, rej1, elapsed1 := runBottleneckLoad(t, nil)
	served4, missed4, rej4, elapsed4 := runBottleneckLoad(t, []int{1, 1, 4})

	rate1 := float64(served1) / elapsed1.Seconds()
	rate4 := float64(served4) / elapsed4.Seconds()
	t.Logf("R=1: served=%d missed=%d rejected=%d rate=%.2f/vs", served1, missed1, rej1, rate1)
	t.Logf("R=4: served=%d missed=%d rejected=%d rate=%.2f/vs", served4, missed4, rej4, rate4)
	if served1 == 0 {
		t.Fatal("baseline served nothing; workload is miscalibrated")
	}
	if rate4 < 2*rate1 {
		t.Errorf("replica scaling: %.2f served/vs with R=4 vs %.2f with R=1, want >= 2x", rate4, rate1)
	}
	dmr := func(missed, served, rejected uint64) float64 {
		resolved := missed + served
		if resolved == 0 {
			return 0
		}
		return float64(missed) / float64(resolved)
	}
	if d4, d1 := dmr(missed4, served4, rej4), dmr(missed1, served1, rej1); d4 > d1 {
		t.Errorf("DMR rose with replicas: %.3f (R=4) vs %.3f (R=1)", d4, d1)
	}
}
