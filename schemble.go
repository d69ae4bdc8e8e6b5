// Package schemble is the public facade of the Schemble reproduction: a
// query difficulty-dependent task scheduling framework for efficient deep
// ensemble inference under deadlines (Li et al., ICDE 2023).
//
// A Framework bundles a fitted deployment — base models, aggregator,
// discrepancy-score predictor, per-bin subset reward profile and the DP
// task scheduler — behind a small API:
//
//	ds, models := schemble.TextMatchingBench(42)
//	fw := schemble.New(schemble.Config{Dataset: ds, Models: models, Seed: 42})
//
//	// Offline: full-ensemble inference and difficulty estimation.
//	out := fw.PredictFull(ds.Samples[0])
//	score := fw.Difficulty(ds.Samples[0])
//
//	// Deterministic serving simulation of a traffic trace.
//	tr := fw.PoissonTrace(40, 2000, 150*time.Millisecond, 1)
//	summary, _ := fw.Simulate(schemble.SimOptions{Trace: tr})
//
//	// Real-time concurrent serving.
//	srv := fw.NewServer(schemble.ServerOptions{TimeScale: 0.1})
//	srv.Start(ctx)
//	res := <-srv.Submit(ds.Samples[0], 150*time.Millisecond)
//
// The heavy lifting lives in internal packages (core: the DP scheduler;
// discrepancy, profiling, sim, serve, ...); this package wires them
// together and re-exports the vocabulary types.
package schemble

import (
	"time"

	"schemble/internal/core"
	"schemble/internal/dataset"
	"schemble/internal/discrepancy"
	"schemble/internal/ensemble"
	"schemble/internal/metrics"
	"schemble/internal/model"
	"schemble/internal/pipeline"
	"schemble/internal/serve"
	"schemble/internal/sim"
	"schemble/internal/trace"
)

// Re-exported vocabulary types. The aliases keep one set of types across
// the public facade and the internal packages.
type (
	// Dataset is a generated workload.
	Dataset = dataset.Dataset
	// Sample is one query-able input.
	Sample = dataset.Sample
	// Model is a deployable base model.
	Model = model.Model
	// Output is a model's (or the ensemble's) prediction.
	Output = model.Output
	// Subset is a set of base-model indices.
	Subset = ensemble.Subset
	// Record is one query's serving outcome.
	Record = metrics.Record
	// Summary aggregates serving records.
	Summary = metrics.Summary
	// Trace is an arrival sequence.
	Trace = trace.Trace
	// Server is the real-time concurrent serving runtime.
	Server = serve.Server
	// ServeResult is a Server's per-request outcome.
	ServeResult = serve.Result
	// ServerStats is a Server's point-in-time health snapshot.
	ServerStats = serve.Stats
)

// Config configures New.
type Config struct {
	// Dataset and Models define the deployment; both are required.
	Dataset *Dataset
	Models  []Model
	// Aggregator defaults to weighted averaging.
	Aggregator ensemble.Aggregator
	// Delta is the DP reward quantization step (default 0.01, the paper's
	// recommended value).
	Delta float64
	// PredictorEpochs tunes the discrepancy predictor's training budget
	// (default 150).
	PredictorEpochs int
	Seed            uint64
}

// Framework is a fitted Schemble deployment.
type Framework struct {
	arts  *pipeline.Artifacts
	delta float64
	seed  uint64
}

// New fits the full pipeline: precomputes ensemble outputs, fits
// calibration + the discrepancy scorer, trains the predictor, and profiles
// subset rewards. The bank-Q&A benchmark at seed 7 (TextMatchingBench(7),
// every other setting at its default) restores a shipped fit of exactly
// that instead, in milliseconds.
func New(cfg Config) *Framework {
	delta := cfg.Delta
	if delta <= 0 {
		delta = 0.01
	}
	arts := pipeline.Build(pipeline.Config{
		Dataset:         cfg.Dataset,
		Models:          cfg.Models,
		Aggregator:      cfg.Aggregator,
		PredictorEpochs: cfg.PredictorEpochs,
		Seed:            cfg.Seed,
	})
	return &Framework{arts: arts, delta: delta, seed: cfg.Seed}
}

// Artifacts exposes the fitted internals for advanced use.
func (f *Framework) Artifacts() *pipeline.Artifacts { return f.arts }

// PredictFull runs the complete ensemble on s.
func (f *Framework) PredictFull(s *Sample) Output {
	return f.arts.Ensemble.PredictFull(s)
}

// PredictSubset runs only the models in sub.
func (f *Framework) PredictSubset(s *Sample, sub Subset) Output {
	return f.arts.Ensemble.PredictSubset(s, sub)
}

// Difficulty estimates the discrepancy score of s in [0,1] with the
// trained lightweight predictor (no base model runs).
func (f *Framework) Difficulty(s *Sample) float64 {
	return f.arts.Predictor.Predict(s)
}

// Reward returns the profiled expected accuracy of executing sub on a
// query with the given difficulty score.
func (f *Framework) Reward(score float64, sub Subset) float64 {
	return f.arts.Profile.Reward(score, sub)
}

// BestSubset returns the cheapest subset within tolerance of the best
// profiled reward at the given score; tolerance 0 means exact best.
func (f *Framework) BestSubset(score, tolerance float64) Subset {
	subs := ensemble.AllSubsets(f.arts.Ensemble.M())
	best := f.arts.Profile.BestSubsetWithin(score, subs)
	if tolerance <= 0 {
		return best
	}
	bestR := f.arts.Profile.Reward(score, best)
	chosen := best
	for _, s := range subs {
		if f.arts.Profile.Reward(score, s) >= (1-tolerance)*bestR && s.Size() < chosen.Size() {
			chosen = s
		}
	}
	return chosen
}

// ServingPool returns the held-out samples traces should draw from (the
// predictor never saw them during training).
func (f *Framework) ServingPool() []*Sample { return f.arts.Serve }

// PoissonTrace builds constant-rate Poisson traffic over the serving pool
// with a constant relative deadline.
func (f *Framework) PoissonTrace(ratePerSec float64, n int, deadline time.Duration, seed uint64) *Trace {
	return trace.Poisson(trace.PoissonConfig{
		RatePerSec: ratePerSec, N: n, Samples: f.arts.Serve,
		Deadline: trace.ConstantDeadline(deadline), Seed: f.seed + seed,
	})
}

// OneDayTrace builds the diurnal bursty one-day trace over the serving
// pool (hourSeconds compresses each hour; 0 means 8).
func (f *Framework) OneDayTrace(deadline time.Duration, hourSeconds float64, seed uint64) *Trace {
	return trace.OneDay(trace.OneDayConfig{
		Samples:     f.arts.Serve,
		Deadline:    trace.ConstantDeadline(deadline),
		HourSeconds: hourSeconds,
		Seed:        f.seed + seed,
	})
}

// SimOptions configures Simulate.
type SimOptions struct {
	Trace *Trace
	// ForceProcess disables rejection: every query is eventually served
	// and latency is reported instead of misses.
	ForceProcess bool
}

// Simulate replays the trace through the Schemble pipeline (discrepancy
// prediction, DP scheduling, per-model queues) in the deterministic
// discrete-event simulator and returns the aggregate summary plus
// per-query records.
func (f *Framework) Simulate(opt SimOptions) (Summary, []Record) {
	recs := sim.Run(sim.Config{
		Ensemble:     f.arts.Ensemble,
		Refs:         f.arts.Refs,
		Scorer:       f.arts.Scorer,
		Scheduler:    &core.DP{Delta: f.delta},
		Rewarder:     f.arts.Profile,
		Estimator:    f.arts.Predictor,
		ScoreDelay:   f.arts.Predictor.InferCost,
		ForceProcess: opt.ForceProcess,
		Seed:         f.seed,
	}, opt.Trace, f.arts.Serve)
	return metrics.Summarize(recs), recs
}

// SimulateOriginal replays the trace through the unmodified full-ensemble
// pipeline — the paper's Original baseline — for comparison.
func (f *Framework) SimulateOriginal(opt SimOptions) (Summary, []Record) {
	full := f.arts.Ensemble.FullSubset()
	recs := sim.Run(sim.Config{
		Ensemble:     f.arts.Ensemble,
		Refs:         f.arts.Refs,
		Scorer:       f.arts.Scorer,
		Select:       func(*Sample) Subset { return full },
		ForceProcess: opt.ForceProcess,
		Seed:         f.seed,
	}, opt.Trace, f.arts.Serve)
	return metrics.Summarize(recs), recs
}

// ServerOptions configures NewServer.
type ServerOptions struct {
	// TimeScale compresses simulated model latencies (0.1 = 10x faster
	// than real time); 0 means real time.
	TimeScale float64
	// QueueDepth bounds each model's task queue (default 1024). Saturated
	// queues reject requests explicitly instead of blocking or leaking.
	QueueDepth int
}

// NewServer builds the real-time concurrent serving runtime over this
// framework's pipeline. Call Start before Submit. Every submitted request
// resolves exactly once — served, missed, or explicitly rejected — and the
// runtime's health is observable via Server.Stats. Shut down with Stop
// (immediate) or Drain (finishes committed work first).
func (f *Framework) NewServer(opt ServerOptions) *Server {
	return serve.New(serve.Config{
		Ensemble:   f.arts.Ensemble,
		Scheduler:  &core.DP{Delta: f.delta},
		Rewarder:   f.arts.Profile,
		Estimator:  f.arts.Predictor,
		TimeScale:  opt.TimeScale,
		QueueDepth: opt.QueueDepth,
		Seed:       f.seed,
	})
}

// Summarize aggregates records (re-exported for example programs).
func Summarize(recs []Record) Summary { return metrics.Summarize(recs) }

// Save writes the fitted pipeline snapshot to path, so a later process can
// Load it and skip profiling and predictor training.
func (f *Framework) Save(path string) error { return f.arts.SaveFile(path) }

// Load restores a framework from a snapshot written by Save. cfg must
// describe the same dataset, models, seed and PredictorEpochs the snapshot
// was fitted with.
func Load(cfg Config, path string) (*Framework, error) {
	delta := cfg.Delta
	if delta <= 0 {
		delta = 0.01
	}
	arts, err := pipeline.LoadFile(pipeline.Config{
		Dataset:         cfg.Dataset,
		Models:          cfg.Models,
		Aggregator:      cfg.Aggregator,
		PredictorEpochs: cfg.PredictorEpochs,
		Seed:            cfg.Seed,
	}, path)
	if err != nil {
		return nil, err
	}
	return &Framework{arts: arts, delta: delta, seed: cfg.Seed}, nil
}

// TextMatchingBench generates the bank-Q&A benchmark: the synthetic text
// matching dataset and its three-model ensemble (BiLSTM/RoBERTa/BERT
// stand-ins).
func TextMatchingBench(seed uint64) (*Dataset, []Model) {
	return dataset.TextMatching(dataset.Config{N: 4000, Seed: seed}),
		model.TextMatchingModels(seed)
}

// VehicleCountingBench generates the UA-DETRAC-like benchmark: regression
// over video frames with a three-detector ensemble.
func VehicleCountingBench(seed uint64) (*Dataset, []Model) {
	return dataset.VehicleCounting(dataset.Config{N: 4000, Seed: seed}),
		model.VehicleCountingModels(seed)
}

// ImageRetrievalBench generates the R1M-like benchmark: embedding ranking
// with a two-model DELG-like ensemble.
func ImageRetrievalBench(seed uint64) (*Dataset, []Model) {
	ds := dataset.ImageRetrieval(dataset.RetrievalConfig{
		Config: dataset.Config{N: 1600, Seed: seed}, GallerySize: 1200, EmbDim: 16})
	return ds, model.ImageRetrievalModels(seed, 16)
}

// DiscrepancyScore computes the true discrepancy score of s from full base
// outputs (offline; requires running every model). The predictor estimates
// this quantity without any model runs.
func (f *Framework) DiscrepancyScore(s *Sample) float64 {
	outs := f.arts.Ensemble.Outputs(s)
	ref := f.arts.Ensemble.Predict(outs, f.arts.Ensemble.FullSubset())
	return f.arts.DisScorer.Score(outs, ref)
}

var _ discrepancy.ScoreEstimator = (*frameworkEstimator)(nil)

// frameworkEstimator adapts Framework.Difficulty to the internal
// ScoreEstimator interface (used in tests).
type frameworkEstimator struct{ f *Framework }

func (fe frameworkEstimator) Predict(s *dataset.Sample) float64 { return fe.f.Difficulty(s) }
