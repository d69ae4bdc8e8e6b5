package discrepancy

import (
	"math"
	"testing"

	"schemble/internal/dataset"
	"schemble/internal/ensemble"
	"schemble/internal/mathx"
	"schemble/internal/model"
)

// fixture precomputes outputs and ensemble outputs for a text-matching set.
func fixture(n int, seed uint64) ([]*dataset.Sample, [][]model.Output, []model.Output) {
	ds := dataset.TextMatching(dataset.Config{N: n, Seed: seed})
	models := model.TextMatchingModels(seed + 100)
	e := ensemble.New(dataset.Classification, models, &ensemble.Average{}, nil)
	var all [][]model.Output
	var ens []model.Output
	for _, s := range ds.Samples {
		outs := e.Outputs(s)
		all = append(all, outs)
		ens = append(ens, e.Predict(outs, e.FullSubset()))
	}
	return ds.Samples, all, ens
}

func TestECDF(t *testing.T) {
	e := NewECDF([]float64{1, 2, 3, 4})
	cases := []struct{ x, want float64 }{
		{0, 0}, {1, 0.25}, {2.5, 0.5}, {4, 1}, {10, 1},
	}
	for _, c := range cases {
		if got := e.Value(c.x); got != c.want {
			t.Errorf("ECDF(%v) = %v, want %v", c.x, got, c.want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("empty ECDF did not panic")
		}
	}()
	NewECDF(nil)
}

func TestDistanceByTask(t *testing.T) {
	a := model.Output{Probs: []float64{0.9, 0.1}}
	b := model.Output{Probs: []float64{0.9, 0.1}}
	if d := Distance(dataset.Classification, a, b); d > 1e-9 {
		t.Errorf("identical outputs distance = %v", d)
	}
	if d := Distance(dataset.Regression, model.Output{Value: 3}, model.Output{Value: 7}); d != 4 {
		t.Errorf("regression distance = %v", d)
	}
	d := Distance(dataset.Retrieval,
		model.Output{Embedding: []float64{1, 0}},
		model.Output{Embedding: []float64{0, 1}})
	if math.Abs(d-math.Sqrt2) > 1e-12 {
		t.Errorf("retrieval distance = %v", d)
	}
}

func TestScoreInUnitInterval(t *testing.T) {
	samples, all, ens := fixture(500, 1)
	sc := Fit(FitConfig{Task: dataset.Classification, Calibrate: true}, all, ens)
	for i := range samples {
		s := sc.Score(all[i], ens[i])
		if s < 0 || s > 1 {
			t.Fatalf("score out of [0,1]: %v", s)
		}
	}
}

func TestScoreTracksLatentDifficulty(t *testing.T) {
	samples, all, ens := fixture(3000, 2)
	sc := Fit(FitConfig{Task: dataset.Classification, Calibrate: true}, all, ens)
	var scores, difficulty []float64
	for i, s := range samples {
		scores = append(scores, sc.Score(all[i], ens[i]))
		difficulty = append(difficulty, s.Difficulty)
	}
	if r := mathx.Pearson(scores, difficulty); r < 0.4 {
		t.Errorf("discrepancy vs latent difficulty correlation = %v, want >= 0.4", r)
	}
}

func TestEasySamplesAgreeWithEnsemble(t *testing.T) {
	// The core claim behind the score: subsets on low-score samples agree
	// with the full ensemble far more often than on high-score samples.
	samples, all, ens := fixture(4000, 3)
	sc := Fit(FitConfig{Task: dataset.Classification, Calibrate: true}, all, ens)
	agree := func(k int, i int) bool {
		return mathx.ArgMax(all[i][k].Probs) == mathx.ArgMax(ens[i].Probs)
	}
	var easyAgree, easyN, hardAgree, hardN float64
	for i := range samples {
		s := sc.Score(all[i], ens[i])
		a := 0.0
		if agree(0, i) { // weakest single model vs ensemble
			a = 1
		}
		if s < 0.3 {
			easyAgree += a
			easyN++
		} else if s > 0.7 {
			hardAgree += a
			hardN++
		}
	}
	if easyN == 0 || hardN == 0 {
		t.Fatal("score distribution degenerate")
	}
	if easyAgree/easyN <= hardAgree/hardN+0.15 {
		t.Errorf("easy agreement %v should exceed hard agreement %v by a margin",
			easyAgree/easyN, hardAgree/hardN)
	}
}

func TestRegressionScorer(t *testing.T) {
	ds := dataset.VehicleCounting(dataset.Config{N: 800, Seed: 4})
	models := model.VehicleCountingModels(5)
	e := ensemble.New(dataset.Regression, models, &ensemble.Average{}, nil)
	var all [][]model.Output
	var ens []model.Output
	for _, s := range ds.Samples {
		outs := e.Outputs(s)
		all = append(all, outs)
		ens = append(ens, e.Predict(outs, e.FullSubset()))
	}
	sc := Fit(FitConfig{Task: dataset.Regression}, all, ens)
	var scores, difficulty []float64
	for i, s := range ds.Samples {
		v := sc.Score(all[i], ens[i])
		if v < 0 || v > 1 {
			t.Fatalf("score out of range: %v", v)
		}
		scores = append(scores, v)
		difficulty = append(difficulty, s.Difficulty)
	}
	if r := mathx.Pearson(scores, difficulty); r < 0.3 {
		t.Errorf("regression score correlation = %v", r)
	}
}

func TestEnsembleAgreementMetric(t *testing.T) {
	same := []model.Output{
		{Probs: []float64{0.9, 0.1}},
		{Probs: []float64{0.9, 0.1}},
	}
	diff := []model.Output{
		{Probs: []float64{0.9, 0.1}},
		{Probs: []float64{0.1, 0.9}},
	}
	if a := EnsembleAgreement(dataset.Classification, same); a > 1e-9 {
		t.Errorf("identical outputs agreement score = %v", a)
	}
	if a := EnsembleAgreement(dataset.Classification, diff); a <= 0 {
		t.Errorf("disagreeing outputs agreement score = %v", a)
	}
	if a := EnsembleAgreement(dataset.Classification, same[:1]); a != 0 {
		t.Errorf("single model agreement = %v, want 0", a)
	}
}

func TestPredictorLearnsScores(t *testing.T) {
	samples, all, ens := fixture(2500, 6)
	sc := Fit(FitConfig{Task: dataset.Classification, Calibrate: true}, all, ens)
	scores := make([]float64, len(samples))
	targets := make([][]float64, len(samples))
	for i := range samples {
		scores[i] = sc.Score(all[i], ens[i])
		oneHot := make([]float64, 2)
		oneHot[mathx.ArgMax(ens[i].Probs)] = 1
		targets[i] = oneHot
	}
	train := 2000
	p := TrainPredictor(PredictorConfig{
		Task: dataset.Classification, Classes: 2, Seed: 6,
	}, samples[:train], scores[:train], targets[:train])

	var pred, truth []float64
	for i := train; i < len(samples); i++ {
		pred = append(pred, p.Predict(samples[i]))
		truth = append(truth, scores[i])
	}
	if r := mathx.Pearson(pred, truth); r < 0.4 {
		t.Errorf("held-out predictor correlation = %v, want >= 0.4", r)
	}
	if p.NumParams() <= 0 {
		t.Error("predictor has no parameters")
	}
	if p.InferCost <= 0 || p.MemoryBytes <= 0 {
		t.Error("predictor cost model unset")
	}
}

func TestConstantPredictor(t *testing.T) {
	samples, _, _ := fixture(10, 7)
	c := &ConstantPredictor{Value: 0.5}
	if c.Predict(samples[0]) != 0.5 {
		t.Error("constant predictor")
	}
}

func TestCalibrationChangesScores(t *testing.T) {
	// abl-calib: with heterogeneous overconfidence, calibrated scores must
	// differ from uncalibrated ones.
	_, all, ens := fixture(600, 8)
	withCal := Fit(FitConfig{Task: dataset.Classification, Calibrate: true}, all, ens)
	noCal := Fit(FitConfig{Task: dataset.Classification, Calibrate: false}, all, ens)
	diff := 0
	for i := range all {
		if math.Abs(withCal.Score(all[i], ens[i])-noCal.Score(all[i], ens[i])) > 1e-6 {
			diff++
		}
	}
	if diff < len(all)/4 {
		t.Errorf("calibration changed only %d/%d scores", diff, len(all))
	}
}
