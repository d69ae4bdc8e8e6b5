package filling

import (
	"math"
	"testing"

	"schemble/internal/dataset"
	"schemble/internal/ensemble"
	"schemble/internal/model"
)

// buildBank precomputes full outputs on a small text-matching dataset.
func buildBank(t *testing.T, n int) ([]Record, []model.Model, *dataset.Dataset) {
	t.Helper()
	ds := dataset.TextMatching(dataset.Config{N: n, Seed: 20})
	models := model.TextMatchingModels(21)
	var all [][]model.Output
	for _, s := range ds.Samples {
		outs := make([]model.Output, len(models))
		for k, m := range models {
			outs[k] = m.Predict(s)
		}
		all = append(all, outs)
	}
	return bankFromOutputs(all), models, ds
}

// bankFromOutputs wraps precomputed full base-model outputs (one row per
// historical sample) into the record bank the KNN filler searches.
func bankFromOutputs(all [][]model.Output) []Record {
	recs := make([]Record, len(all))
	for i, outs := range all {
		recs[i] = Record{Outputs: outs}
	}
	return recs
}

func TestKNNPreservesPresent(t *testing.T) {
	bank, models, ds := buildBank(t, 200)
	f := NewKNN(5, bank)
	s := ds.Samples[0]
	outs := []model.Output{models[0].Predict(s), {}, {}}
	present := ensemble.Single(0)
	filled := f.Fill(outs, present)
	for c := range outs[0].Probs {
		if filled[0].Probs[c] != outs[0].Probs[c] {
			t.Fatal("KNN modified a present output")
		}
	}
	for k := 1; k < 3; k++ {
		if len(filled[k].Probs) != 2 {
			t.Fatalf("model %d not filled", k)
		}
		var sum float64
		for _, p := range filled[k].Probs {
			if p < 0 || p > 1 {
				t.Fatalf("filled prob out of range: %v", p)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("filled probs sum to %v", sum)
		}
	}
}

func TestKNNExactMatchRecovers(t *testing.T) {
	// When the partial output exactly matches a bank record, k=1 filling
	// must return that record's missing outputs.
	bank, _, _ := buildBank(t, 100)
	f := NewKNN(1, bank)
	rec := bank[17]
	outs := []model.Output{rec.Outputs[0], {}, {}}
	filled := f.Fill(outs, ensemble.Single(0))
	for k := 1; k < 3; k++ {
		for c := range rec.Outputs[k].Probs {
			if math.Abs(filled[k].Probs[c]-rec.Outputs[k].Probs[c]) > 1e-6 {
				t.Fatalf("k=1 exact match did not recover record output (model %d)", k)
			}
		}
	}
}

func TestKNNIsBetterThanUniform(t *testing.T) {
	// Imputation error of KNN must beat the uniform filler on average.
	bank, models, ds := buildBank(t, 400)
	f := NewKNN(10, bank[:300])
	u := &Uniform{Classes: 2}
	var errKNN, errUni float64
	n := 0
	for _, s := range ds.Samples[300:] {
		truth := make([]model.Output, len(models))
		for k, m := range models {
			truth[k] = m.Predict(s)
		}
		outs := []model.Output{truth[0], {}, {}}
		present := ensemble.Single(0)
		fk := f.Fill(outs, present)
		fu := u.Fill(outs, present)
		for k := 1; k < 3; k++ {
			for c := range truth[k].Probs {
				dk := fk[k].Probs[c] - truth[k].Probs[c]
				du := fu[k].Probs[c] - truth[k].Probs[c]
				errKNN += dk * dk
				errUni += du * du
			}
		}
		n++
	}
	if errKNN >= errUni {
		t.Errorf("KNN imputation error %v not better than uniform %v", errKNN, errUni)
	}
}

func TestUniformFiller(t *testing.T) {
	u := &Uniform{Classes: 2}
	outs := []model.Output{{Probs: []float64{0.9, 0.1}}, {}}
	filled := u.Fill(outs, ensemble.Single(0))
	if filled[1].Probs[0] != 0.5 || filled[1].Probs[1] != 0.5 {
		t.Errorf("uniform fill = %v", filled[1].Probs)
	}
	if filled[0].Probs[0] != 0.9 {
		t.Error("uniform filler modified present output")
	}
}

func TestMeanOfPresentFiller(t *testing.T) {
	f := MeanOfPresent{}
	outs := []model.Output{
		{Probs: []float64{0.8, 0.2}},
		{Probs: []float64{0.6, 0.4}},
		{},
	}
	filled := f.Fill(outs, ensemble.Full(2)) // models 0,1 present
	if math.Abs(filled[2].Probs[0]-0.7) > 1e-12 {
		t.Errorf("mean fill = %v, want 0.7", filled[2].Probs[0])
	}
}

func TestKNNDefaultsAndPanics(t *testing.T) {
	bank, _, _ := buildBank(t, 20)
	f := NewKNN(0, bank)
	if f.K != 10 {
		t.Errorf("default K = %d, want 10", f.K)
	}
	// K larger than the bank clamps instead of panicking.
	big := NewKNN(1000, bank)
	outs := []model.Output{bank[0].Outputs[0], {}, {}}
	big.Fill(outs, ensemble.Single(0))

	defer func() {
		if recover() == nil {
			t.Error("empty bank did not panic")
		}
	}()
	NewKNN(5, nil)
}
