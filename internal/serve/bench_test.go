package serve

import (
	"testing"
	"time"

	"schemble/internal/core"
	"schemble/internal/dataset"
	"schemble/internal/model"
	"schemble/internal/pipeline"
	"schemble/internal/rng"
	"schemble/internal/trace"
)

// uniformDeadline draws each relative deadline uniformly from [min, max).
type uniformDeadline struct{ min, max time.Duration }

func (u uniformDeadline) Relative(_ *dataset.Sample, src *rng.Source) time.Duration {
	return time.Duration(src.Uniform(float64(u.min), float64(u.max)))
}

// shipped is the shipped deployment's fitted pipeline, restored from its
// snapshot.
func shipped() *pipeline.Artifacts {
	return pipeline.Build(pipeline.Config{
		Dataset: dataset.TextMatching(dataset.Config{N: 4000, Seed: 7}),
		Models:  model.TextMatchingModels(7),
		Seed:    7,
	})
}

// burstTrace is n arrivals of the burst workload's MMPP shape: 12.5 and 100
// req/s, held 2 s and 1 s, deadlines uniform in 150 ms-1 s.
func burstTrace(arts *pipeline.Artifacts, n int, seed uint64) *trace.Trace {
	return trace.MMPP(trace.MMPPConfig{
		Rates: []float64{12.5, 100}, MeanHold: []time.Duration{2 * time.Second, time.Second},
		N: n, Samples: arts.Serve, Deadline: uniformDeadline{150 * time.Millisecond, time.Second}, Seed: seed,
	})
}

// zeroConfig is a zero-config server's configuration over arts.
func zeroConfig(arts *pipeline.Artifacts) Config {
	return Config{Ensemble: arts.Ensemble, Scheduler: &core.DP{Delta: 0.01}, Rewarder: arts.Profile, Estimator: arts.Predictor}
}

// TestReplayBurstKeepsEveryEarlyOutput: on a fault-free burst replay every
// early task's output is kept by its query's commit. The plans count an
// early task as the query's own, and a commit takes back an early model the
// plan left out when that costs no reward, so none is thrown away.
func TestReplayBurstKeepsEveryEarlyOutput(t *testing.T) {
	arts := shipped()
	for _, seed := range []uint64{1, 2, 3} {
		s := New(zeroConfig(arts))
		Replay(s, burstTrace(arts, 2000, seed), arts.Serve)
		st := s.Stats()
		if st.EarlyTasks == 0 || st.EarlyUsed != st.EarlyTasks {
			t.Errorf("seed %d: %d early tasks, %d outputs kept; want some, every one kept", seed, st.EarlyTasks, st.EarlyUsed)
		}
	}
}

// BenchmarkReplayBurst is the runtime's micro: 500 arrivals of the burst
// workload's shape replayed through a zero-config server of the shipped
// deployment on the virtual clock. Model time costs nothing there, so an op
// is the coordinator's turns and passes, the planner, the hand-offs to the
// workers and the settlements.
func BenchmarkReplayBurst(b *testing.B) {
	arts := shipped()
	tr := burstTrace(arts, 500, 1)
	cfg := zeroConfig(arts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Replay(New(cfg), tr, arts.Serve)
	}
}

// BenchmarkReplaySteady is BenchmarkReplayBurst on the steady workload's
// shape: 500 Poisson arrivals at 8 req/s, 0.72x the full ensemble's
// bottleneck, with 150 ms deadlines. The buffer stays shallow, so an op is
// mostly the runtime's per-request cost rather than the planner's.
func BenchmarkReplaySteady(b *testing.B) {
	arts := shipped()
	tr := trace.Poisson(trace.PoissonConfig{
		RatePerSec: 8, N: 500, Samples: arts.Serve, Deadline: trace.ConstantDeadline(150 * time.Millisecond), Seed: 1,
	})
	cfg := zeroConfig(arts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Replay(New(cfg), tr, arts.Serve)
	}
}
