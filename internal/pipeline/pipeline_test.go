package pipeline

import (
	"sync"
	"testing"

	"schemble/internal/dataset"
	"schemble/internal/ensemble"
	"schemble/internal/mathx"
	"schemble/internal/model"
)

// shared fixture: building the pipeline is the expensive part, so tests
// share one Artifacts per task.
var (
	tmOnce sync.Once
	tmArt  *Artifacts
)

func tmArtifacts(t *testing.T) *Artifacts {
	t.Helper()
	tmOnce.Do(func() {
		ds := dataset.TextMatching(dataset.Config{N: 3000, Seed: 42})
		tmArt = Build(Config{
			Dataset: ds,
			Models:  model.TextMatchingModels(42),
			Seed:    42,
		})
	})
	return tmArt
}

func TestBuildProducesCompleteArtifacts(t *testing.T) {
	a := tmArtifacts(t)
	n := len(a.Dataset.Samples)
	if len(a.Outs) != n || len(a.Refs) != n || len(a.TrueScores) != n ||
		len(a.EAScores) != n || len(a.PerModelAgree) != n {
		t.Fatal("per-sample artifacts incomplete")
	}
	if a.Predictor == nil || a.EAPredictor == nil || a.Profile == nil || a.EAProfile == nil {
		t.Fatal("fitted components missing")
	}
	if len(a.Train)+len(a.Val)+len(a.Serve) != n {
		t.Fatal("splits do not partition the dataset")
	}
	for _, s := range a.TrueScores {
		if s < 0 || s > 1 {
			t.Fatalf("true score out of range: %v", s)
		}
	}
}

func TestPredictorGeneralizesToServePool(t *testing.T) {
	a := tmArtifacts(t)
	var pred, truth []float64
	for _, s := range a.Serve {
		pred = append(pred, a.Predictor.Predict(s))
		truth = append(truth, a.TrueScores[s.ID])
	}
	if r := mathx.Pearson(pred, truth); r < 0.45 {
		t.Errorf("serve-pool predictor correlation = %v, want >= 0.45", r)
	}
}

func TestProfileRewardsSaneOnServeScores(t *testing.T) {
	a := tmArtifacts(t)
	full := a.Ensemble.FullSubset()
	for _, s := range a.Serve[:200] {
		score := a.Predictor.Predict(s)
		r := a.Profile.Reward(score, full)
		if r < 0.99 {
			t.Fatalf("full subset reward = %v, want ~1", r)
		}
		single := a.Profile.Reward(score, ensemble.Single(0))
		if single < 0 || single > 1 {
			t.Fatalf("singleton reward out of range: %v", single)
		}
	}
}

func TestStaticPlanIsSensible(t *testing.T) {
	a := tmArtifacts(t)
	plan := a.StaticPlan(30)
	if plan.Subset == ensemble.Empty {
		t.Fatal("static plan chose nothing")
	}
	if plan.Throughput <= 0 {
		t.Fatal("static plan has zero throughput")
	}
	// Replica memory must fit the full-deployment budget.
	var used, budget int64
	for j, md := range a.Ensemble.Models {
		budget += md.Memory()
		used += int64(plan.Replicas[j]) * md.Memory()
	}
	if used > budget {
		t.Errorf("replica packing overflows budget: %d > %d", used, budget)
	}
	// Dropped models must have zero replicas.
	for j := range plan.Replicas {
		if !plan.Subset.Contains(j) && plan.Replicas[j] != 0 {
			t.Errorf("dropped model %d has replicas", j)
		}
	}
}

func TestDESAndGatingSelectNonEmpty(t *testing.T) {
	a := tmArtifacts(t)
	des := a.TrainDES()
	gate := a.TrainGating()
	for _, s := range a.Serve[:300] {
		if des.Select(s) == ensemble.Empty {
			t.Fatal("DES selected the empty subset")
		}
		if gate.Select(s) == ensemble.Empty {
			t.Fatal("gating selected the empty subset")
		}
	}
}

func TestGatingWeightsFavorStrongModels(t *testing.T) {
	a := tmArtifacts(t)
	gate := a.TrainGating()
	var mean [3]float64
	for _, s := range a.Serve[:500] {
		w := gate.Weights(s)
		for k := range mean {
			mean[k] += w[k]
		}
	}
	// bilstm (model 0) agrees with the ensemble least, so its mean gate
	// weight should be the lowest.
	if mean[0] >= mean[2] {
		t.Errorf("gate weights do not reflect model quality: %v", mean)
	}
}

func TestRegressionPipeline(t *testing.T) {
	ds := dataset.VehicleCounting(dataset.Config{N: 1200, Seed: 7})
	a := Build(Config{
		Dataset: ds, Models: model.VehicleCountingModels(7),
		PredictorEpochs: 20, Seed: 7,
	})
	var pred, truth []float64
	for _, s := range a.Serve {
		pred = append(pred, a.Predictor.Predict(s))
		truth = append(truth, a.TrueScores[s.ID])
	}
	if r := mathx.Pearson(pred, truth); r < 0.3 {
		t.Errorf("regression predictor correlation = %v", r)
	}
}
