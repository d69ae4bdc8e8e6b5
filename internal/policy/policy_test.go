package policy

import (
	"testing"

	"schemble/internal/dataset"
	"schemble/internal/ensemble"
	"schemble/internal/mathx"
	"schemble/internal/model"
)

// fixture builds samples and per-model agreement rows.
func fixture(t *testing.T, n int) ([]*dataset.Sample, [][]float64, []model.Model) {
	t.Helper()
	ds := dataset.TextMatching(dataset.Config{N: n, Seed: 31})
	models := model.TextMatchingModels(31)
	e := ensemble.New(dataset.Classification, models, &ensemble.Average{}, nil)
	agree := make([][]float64, n)
	for i, s := range ds.Samples {
		outs := e.Outputs(s)
		ref := e.Predict(outs, e.FullSubset())
		row := make([]float64, len(models))
		for k := range models {
			if mathx.ArgMax(outs[k].Probs) == mathx.ArgMax(ref.Probs) {
				row[k] = 1
			}
		}
		agree[i] = row
	}
	return ds.Samples, agree, models
}

func TestOriginalSelectsFull(t *testing.T) {
	sel := Original(3)
	if got := sel(nil); got != ensemble.Full(3) {
		t.Errorf("Original selected %v", got)
	}
}

func TestPlanStaticRespectsMemory(t *testing.T) {
	_, _, models := fixture(t, 200)
	acc := func(s ensemble.Subset) float64 {
		// Larger subsets more accurate; weak model 0 contributes least.
		return 0.7 + 0.1*float64(s.Size())
	}
	var budget int64
	for _, m := range models {
		budget += m.Memory()
	}
	plan := PlanStatic(StaticConfig{TargetRate: 30}, models, acc)
	if plan.Subset == ensemble.Empty {
		t.Fatal("no plan")
	}
	var used int64
	for j, r := range plan.Replicas {
		used += int64(r) * models[j].Memory()
		if r > 0 && !plan.Subset.Contains(j) {
			t.Errorf("replica of dropped model %d", j)
		}
		if r == 0 && plan.Subset.Contains(j) {
			t.Errorf("chosen model %d has no replica", j)
		}
	}
	if used > budget {
		t.Errorf("memory overflow: %d > %d", used, budget)
	}
	if plan.Throughput <= 0 {
		t.Error("throughput not computed")
	}
}

func TestPlanStaticPrefersAccuracyWhenFeasible(t *testing.T) {
	_, _, models := fixture(t, 100)
	acc := func(s ensemble.Subset) float64 { return float64(s.Size()) / 3 }
	// With a tiny target rate everything sustains the load, so the full
	// subset (max accuracy) should win if it fits in memory.
	plan := PlanStatic(StaticConfig{TargetRate: 0.1}, models, acc)
	if plan.Subset != ensemble.Full(3) {
		t.Errorf("low-load static plan = %v, want full", plan.Subset)
	}
}

func TestPlanStaticTradesAccuracyForThroughput(t *testing.T) {
	_, _, models := fixture(t, 100)
	acc := func(s ensemble.Subset) float64 { return 0.5 + float64(s.Size())/6 }
	low := PlanStatic(StaticConfig{TargetRate: 1}, models, acc)
	high := PlanStatic(StaticConfig{TargetRate: 200}, models, acc)
	if high.Throughput < low.Throughput && high.Subset == low.Subset {
		t.Errorf("high target rate should push toward higher-throughput plans: %v vs %v",
			high.Throughput, low.Throughput)
	}
}

func TestDESSelect(t *testing.T) {
	samples, agree, _ := fixture(t, 1500)
	des := TrainDES(DESConfig{Seed: 1}, samples, agree)
	if len(des.competence) == 0 {
		t.Fatal("no competence table")
	}
	for _, s := range samples[:200] {
		sub := des.Select(s)
		if sub == ensemble.Empty {
			t.Fatal("DES selected nothing")
		}
	}
	// Competence must order sensibly on average: strongest model 2 should
	// exceed weakest model 0 in most regions.
	better := 0
	for _, row := range des.competence {
		if row[2] >= row[0] {
			better++
		}
	}
	if better < len(des.competence)/2 {
		t.Errorf("competence ordering wrong in %d/%d regions", better, len(des.competence))
	}
}

func TestDESThresholdControlsSize(t *testing.T) {
	samples, agree, _ := fixture(t, 1000)
	tight := TrainDES(DESConfig{Seed: 2, Threshold: 0.999}, samples, agree)
	loose := TrainDES(DESConfig{Seed: 2, Threshold: 0.5}, samples, agree)
	var sizeTight, sizeLoose int
	for _, s := range samples[:300] {
		sizeTight += tight.Select(s).Size()
		sizeLoose += loose.Select(s).Size()
	}
	if sizeLoose <= sizeTight {
		t.Errorf("lower threshold should select more models: %d vs %d", sizeLoose, sizeTight)
	}
}

func TestGating(t *testing.T) {
	samples, agree, _ := fixture(t, 1500)
	g := TrainGating(GatingConfig{Seed: 3, Epochs: 30}, samples, agree)
	for _, s := range samples[:200] {
		sub := g.Select(s)
		if sub == ensemble.Empty {
			t.Fatal("gating selected nothing")
		}
		w := g.Weights(s)
		if len(w) != 3 {
			t.Fatalf("weights len %d", len(w))
		}
		for _, v := range w {
			if v < 0 || v > 1 {
				t.Fatalf("weight out of range: %v", v)
			}
		}
	}
	// The mean weight of the weakest model should be lowest.
	var mean [3]float64
	for _, s := range samples {
		w := g.Weights(s)
		for k := range mean {
			mean[k] += w[k]
		}
	}
	if mean[0] >= mean[2] {
		t.Errorf("gate means do not reflect quality: %v", mean)
	}
}

func TestTrainPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"DES empty":    func() { TrainDES(DESConfig{}, nil, nil) },
		"gating empty": func() { TrainGating(GatingConfig{}, nil, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}
