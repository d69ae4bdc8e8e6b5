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

// BenchmarkReplayBurst is the runtime's micro: 500 arrivals of the burst
// workload's MMPP shape (12.5 and 100 req/s, held 2 s and 1 s, deadlines
// uniform in 150 ms-1 s) replayed through a zero-config server of the shipped
// deployment on the virtual clock. Model time costs nothing there, so an op
// is the coordinator's turns and passes, the planner, the hand-offs to the
// workers and the settlements.
func BenchmarkReplayBurst(b *testing.B) {
	arts := pipeline.Build(pipeline.Config{
		Dataset: dataset.TextMatching(dataset.Config{N: 4000, Seed: 7}),
		Models:  model.TextMatchingModels(7),
		Seed:    7,
	})
	tr := trace.MMPP(trace.MMPPConfig{
		Rates: []float64{12.5, 100}, MeanHold: []time.Duration{2 * time.Second, time.Second},
		N: 500, Samples: arts.Serve, Deadline: uniformDeadline{150 * time.Millisecond, time.Second}, Seed: 1,
	})
	cfg := Config{Ensemble: arts.Ensemble, Scheduler: &core.DP{Delta: 0.01}, Rewarder: arts.Profile, Estimator: arts.Predictor}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Replay(New(cfg), tr, arts.Serve)
	}
}
