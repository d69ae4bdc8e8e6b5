// Package pipeline assembles a complete Schemble deployment from a dataset
// and a model zoo: it precomputes base and ensemble outputs, fits the
// discrepancy scorer (with temperature calibration), computes true
// difficulty scores on the training split, trains the two-headed predictor
// and its ensemble-agreement variant, profiles subset rewards per score
// bin, and trains the DES / Gating baselines. The resulting Artifacts feed
// the simulator and all experiments; everything is deterministic in the
// seed. Fit always trains; Build restores the fit this package ships
// (shipped.snapshot) when asked for that deployment, and trains otherwise.
package pipeline

import (
	"sync"
	"time"

	"schemble/internal/dataset"
	"schemble/internal/discrepancy"
	"schemble/internal/ensemble"
	"schemble/internal/mathx"
	"schemble/internal/model"
	"schemble/internal/policy"
	"schemble/internal/profiling"
)

// Config controls Build and Fit.
type Config struct {
	Dataset *dataset.Dataset
	Models  []model.Model
	// Aggregator defaults to ensemble.Average.
	Aggregator ensemble.Aggregator
	// TrainFrac/ValFrac split the dataset (defaults 0.5/0.1; the rest is
	// the serving pool traces draw from).
	TrainFrac, ValFrac float64
	// Bins is the profiling bin count (default 10).
	Bins int
	// PredictorEpochs defaults to 150.
	PredictorEpochs int
	// Calibrate applies temperature scaling inside the discrepancy scorer
	// (default on for classification; abl-calib switches it off via
	// DisableCalibration).
	DisableCalibration bool
	Seed               uint64
}

// Artifacts is a fully fitted deployment.
type Artifacts struct {
	Dataset  *dataset.Dataset
	Ensemble *ensemble.Ensemble
	Scorer   *ensemble.Scorer

	// Outs[sampleID][k] is model k's output on the sample; Refs[sampleID]
	// the full ensemble's.
	Outs [][]model.Output
	Refs []model.Output

	// DisScorer computes true discrepancy scores from full outputs.
	DisScorer *discrepancy.Scorer
	// TrueScores[sampleID] is the discrepancy score (Eq. 1).
	TrueScores []float64
	// EAScores[sampleID] is the rank-normalized ensemble-agreement score.
	EAScores []float64
	// PerModelAgree[sampleID][k] is the agreement of model k alone with
	// the full ensemble.
	PerModelAgree [][]float64

	// Predictor estimates discrepancy scores from features; EAPredictor
	// is its Schemble(ea) counterpart trained on agreement scores.
	Predictor   *discrepancy.Predictor
	EAPredictor *discrepancy.Predictor

	// Profile maps (score bin, subset) to expected agreement; EAProfile is
	// the profile over EA scores.
	Profile   *profiling.Profile
	EAProfile *profiling.Profile

	// Train/Val/Serve are the dataset splits; traces should draw from
	// Serve to keep the predictor honest.
	Train, Val, Serve []*dataset.Sample

	Seed uint64
	// fit is what Save records of the fit settings, for Load to check.
	fit fitSettings
}

// Build returns cfg's fitted pipeline. When cfg is the shipped deployment
// (text matching, N 4000, seed 7, default fit settings and scaffold; see
// shipped.snapshot) it restores that fit, in milliseconds; any other cfg it
// fits, as Fit does, in about a second for that size. Both paths start from
// one scaffold and end in the same bits, which TestShippedSnapshotCurrent
// holds. Every call returns state of its own: nothing is shared with, or
// cached for, another call.
func Build(cfg Config) *Artifacts {
	a, _ := build(cfg)
	return a
}

// build is Build, also saying whether it restored the shipped snapshot.
func build(cfg Config) (a *Artifacts, restored bool) {
	cfg = withDefaults(cfg)
	a = buildScaffold(cfg)
	if restoreShipped(cfg, a) {
		return a, true
	}
	a.train(cfg)
	return a, false
}

// Fit fits the full pipeline and never restores: profiling and predictor
// training run on every call. It is what Build falls back to, and what the
// checks that measure or pin training call.
func Fit(cfg Config) *Artifacts {
	cfg = withDefaults(cfg)
	a := buildScaffold(cfg)
	a.train(cfg)
	return a
}

// withDefaults checks cfg and fills its zero fields with their defaults.
func withDefaults(cfg Config) Config {
	if cfg.Dataset == nil || len(cfg.Models) == 0 {
		panic("pipeline: dataset and models required")
	}
	return resolved(cfg)
}

// resolved fills cfg's zero fields with their defaults.
func resolved(cfg Config) Config {
	if cfg.Aggregator == nil {
		cfg.Aggregator = &ensemble.Average{}
	}
	//schemble:floateq-ok zero-value config sentinel: the field is set verbatim by callers, never computed
	if cfg.TrainFrac == 0 {
		cfg.TrainFrac = 0.5
	}
	//schemble:floateq-ok zero-value config sentinel: the field is set verbatim by callers, never computed
	if cfg.ValFrac == 0 {
		cfg.ValFrac = 0.1
	}
	if cfg.PredictorEpochs == 0 {
		cfg.PredictorEpochs = 150
	}
	if cfg.Bins == 0 {
		cfg.Bins = 10
	}
	return cfg
}

// train fits everything above the scaffold: the discrepancy scorer, true
// and EA scores, the profiles and both predictors. cfg has its defaults.
func (a *Artifacts) train(cfg Config) {
	a.fit = fitOf(cfg)
	n := len(cfg.Dataset.Samples)

	// Fit the discrepancy scorer on the training split.
	trainOuts := make([][]model.Output, len(a.Train))
	trainRefs := make([]model.Output, len(a.Train))
	for i, s := range a.Train {
		trainOuts[i] = a.Outs[s.ID]
		trainRefs[i] = a.Refs[s.ID]
	}
	a.DisScorer = discrepancy.Fit(discrepancy.FitConfig{
		Task:      cfg.Dataset.Task,
		Calibrate: !cfg.DisableCalibration,
	}, trainOuts, trainRefs)

	// True scores and per-model agreements for every sample.
	a.TrueScores = make([]float64, n)
	a.PerModelAgree = make([][]float64, n)
	rawEA := make([]float64, n)
	m := a.Ensemble.M()
	for _, s := range cfg.Dataset.Samples {
		id := s.ID
		a.TrueScores[id] = a.DisScorer.Score(a.Outs[id], a.Refs[id])
		rawEA[id] = discrepancy.EnsembleAgreement(cfg.Dataset.Task, a.Outs[id])
		agreeRow := make([]float64, m)
		for k := 0; k < m; k++ {
			agreeRow[k] = a.Scorer.Score(
				a.Ensemble.Predict(a.Outs[id], ensemble.Single(k)), a.Refs[id])
		}
		a.PerModelAgree[id] = agreeRow
	}
	// Rank-normalize EA scores into [0,1] using the training split's ECDF.
	trainEA := make([]float64, len(a.Train))
	for i, s := range a.Train {
		trainEA[i] = rawEA[s.ID]
	}
	eaECDF := discrepancy.NewECDF(trainEA)
	a.EAScores = make([]float64, n)
	for id := range a.EAScores {
		a.EAScores[id] = eaECDF.Value(rawEA[id])
	}

	// Profiles over the training split.
	agreeSubset := func(ids []int) func(i int, s ensemble.Subset) float64 {
		return func(i int, s ensemble.Subset) float64 {
			id := ids[i]
			return a.Scorer.Score(a.Ensemble.Predict(a.Outs[id], s), a.Refs[id])
		}
	}
	trainIDs := make([]int, len(a.Train))
	trainScores := make([]float64, len(a.Train))
	trainEAScores := make([]float64, len(a.Train))
	for i, s := range a.Train {
		trainIDs[i] = s.ID
		trainScores[i] = a.TrueScores[s.ID]
		trainEAScores[i] = a.EAScores[s.ID]
	}
	a.Profile = profiling.Build(profiling.Config{M: m, Bins: cfg.Bins},
		trainScores, agreeSubset(trainIDs))
	a.EAProfile = profiling.Build(profiling.Config{M: m, Bins: cfg.Bins},
		trainEAScores, agreeSubset(trainIDs))

	// Predictors.
	taskTargets := make([][]float64, len(a.Train))
	for i, s := range a.Train {
		taskTargets[i] = a.taskTarget(s)
	}
	pcfg := discrepancy.PredictorConfig{
		Task:    cfg.Dataset.Task,
		Classes: cfg.Dataset.Classes,
		Epochs:  cfg.PredictorEpochs,
		Seed:    cfg.Seed,
	}
	// The two fits are independent: each draws from its own seed and only
	// reads the samples and targets they share, so they run side by side
	// and yield the weights they would have yielded one after the other.
	eaCfg := pcfg
	eaCfg.Seed = cfg.Seed + 1
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		a.EAPredictor = discrepancy.TrainPredictor(eaCfg, a.Train, trainEAScores, taskTargets)
	}()
	a.Predictor = discrepancy.TrainPredictor(pcfg, a.Train, trainScores, taskTargets)
	wg.Wait()
}

// taskTarget builds the task-head training target for one sample: the
// ensemble's one-hot prediction (classification), the normalized ensemble
// value (regression) or the EA score (retrieval — a cheap auxiliary
// difficulty signal, since the ranking itself has no fixed-width target).
func (a *Artifacts) taskTarget(s *dataset.Sample) []float64 {
	ref := a.Refs[s.ID]
	switch a.Dataset.Task {
	case dataset.Classification:
		t := make([]float64, a.Dataset.Classes)
		t[mathx.ArgMax(ref.Probs)] = 1
		return t
	case dataset.Regression:
		return []float64{ref.Value / 25}
	default:
		return []float64{a.EAScores[s.ID]}
	}
}

// PerModelAgreeRows returns the agreement rows for the given samples.
func (a *Artifacts) PerModelAgreeRows(samples []*dataset.Sample) [][]float64 {
	rows := make([][]float64, len(samples))
	for i, s := range samples {
		rows[i] = a.PerModelAgree[s.ID]
	}
	return rows
}

// SubsetAccuracy returns the mean agreement of subset s with the full
// ensemble over the training split (the static baseline's search oracle).
func (a *Artifacts) SubsetAccuracy(s ensemble.Subset) float64 {
	var sum float64
	for _, smp := range a.Train {
		sum += a.Scorer.Score(a.Ensemble.Predict(a.Outs[smp.ID], s), a.Refs[smp.ID])
	}
	return sum / float64(len(a.Train))
}

// StaticPlan runs the static baseline's offline search at the given target
// rate.
func (a *Artifacts) StaticPlan(targetRate float64) policy.StaticPlan {
	return policy.PlanStatic(policy.StaticConfig{TargetRate: targetRate},
		a.Ensemble.Models, a.SubsetAccuracy)
}

// TrainDES fits the DES baseline on the training split.
func (a *Artifacts) TrainDES() *policy.DES {
	return policy.TrainDES(policy.DESConfig{Seed: a.Seed},
		a.Train, a.PerModelAgreeRows(a.Train))
}

// TrainGating fits the gating baseline on the training split. Latencies
// are passed so deployment-style cost-aware thresholding applies.
func (a *Artifacts) TrainGating() *policy.Gating {
	lats := make([]float64, a.Ensemble.M())
	for k, m := range a.Ensemble.Models {
		lats[k] = m.MeanLatency().Seconds()
	}
	return policy.TrainGating(policy.GatingConfig{Seed: a.Seed, Latencies: lats},
		a.Train, a.PerModelAgreeRows(a.Train))
}

// OracleEstimator returns a score estimator that reads the true discrepancy
// scores (Schemble*(Oracle)).
func (a *Artifacts) OracleEstimator() *discrepancy.OraclePredictor {
	scores := make(map[int]float64, len(a.TrueScores))
	for id, s := range a.TrueScores {
		scores[id] = s
	}
	return &discrepancy.OraclePredictor{Scores: scores}
}

// MeanExec returns the mean inference latency per model type.
func (a *Artifacts) MeanExec() []time.Duration {
	out := make([]time.Duration, a.Ensemble.M())
	for k, md := range a.Ensemble.Models {
		out[k] = md.MeanLatency()
	}
	return out
}
