package pipeline

import (
	"bytes"
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"schemble/internal/dataset"
	"schemble/internal/discrepancy"
	"schemble/internal/ensemble"
	"schemble/internal/model"
	"schemble/internal/profiling"
)

func persistFixtureCfg() Config {
	return Config{
		Dataset: dataset.TextMatching(dataset.Config{N: 900, Seed: 77}),
		Models:  model.TextMatchingModels(77),
		Seed:    77, PredictorEpochs: 15,
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	cfg := persistFixtureCfg()
	orig := Build(cfg)
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}

	// Rebuild the dataset/models from the same seeds, then restore.
	cfg2 := persistFixtureCfg()
	restored, err := Load(cfg2, &buf)
	if err != nil {
		t.Fatal(err)
	}

	// Fitted state must survive bit for bit, on every sample: a restored
	// deployment has to make the decisions a fresh fit makes.
	sameBits(t, "TrueScores", orig.TrueScores, restored.TrueScores)
	sameBits(t, "EAScores", orig.EAScores, restored.EAScores)
	sameRows(t, "PerModelAgree", orig.PerModelAgree, restored.PerModelAgree)
	for _, s := range orig.Dataset.Samples {
		id := s.ID
		sameBits(t, fmt.Sprintf("sample %d: Predictor, EAPredictor, DisScorer", id),
			[]float64{orig.Predictor.Predict(s), orig.EAPredictor.Predict(s),
				orig.DisScorer.Score(orig.Outs[id], orig.Refs[id])},
			[]float64{restored.Predictor.Predict(s), restored.EAPredictor.Predict(s),
				restored.DisScorer.Score(restored.Outs[id], restored.Refs[id])})
	}
	for _, p := range [][2]*discrepancy.Predictor{
		{orig.Predictor, restored.Predictor}, {orig.EAPredictor, restored.EAPredictor},
	} {
		wo, err := p[0].MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		wr, err := p[1].MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wo, wr) || p[0].InferCost != p[1].InferCost || p[0].MemoryBytes != p[1].MemoryBytes {
			t.Fatal("predictor weights or serving cost differ after restore")
		}
	}
	for _, p := range [][2]*profiling.Profile{
		{orig.Profile, restored.Profile}, {orig.EAProfile, restored.EAProfile},
	} {
		if p[0].M != p[1].M || p[0].Bins != p[1].Bins || !slices.Equal(p[0].Counts, p[1].Counts) {
			t.Fatal("profile shape or counts differ after restore")
		}
		sameBits(t, "profile edges", p[0].Edges, p[1].Edges)
		sameRows(t, "profile rewards", p[0].U, p[1].U)
	}
	temps := func(a *Artifacts) []float64 {
		ts := make([]float64, len(a.DisScorer.Calibrators))
		for k, c := range a.DisScorer.Calibrators {
			if c != nil {
				ts[k] = c.T
			}
		}
		return ts
	}
	sameBits(t, "calibrator temperatures", temps(orig), temps(restored))
	norms := func(a *Artifacts) [][]float64 {
		rows := make([][]float64, len(a.DisScorer.Norms))
		for k, n := range a.DisScorer.Norms {
			rows[k] = n.Sample()
		}
		return rows
	}
	sameRows(t, "normalizer samples", norms(orig), norms(restored))
	// Splits are re-derived from the seed, so they must match ID for ID.
	ids := func(a *Artifacts) [][]float64 {
		rows := [][]float64{}
		for _, split := range [][]*dataset.Sample{a.Train, a.Val, a.Serve} {
			row := make([]float64, len(split))
			for i, s := range split {
				row[i] = float64(s.ID)
			}
			rows = append(rows, row)
		}
		return rows
	}
	sameRows(t, "split IDs", ids(orig), ids(restored))
}

// sameBits fails unless got has want's length and every value's bits.
func sameBits(t *testing.T, what string, want, got []float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d values after restore, %d fitted", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("%s[%d]: %v after restore, %v fitted", what, i, got[i], want[i])
		}
	}
}

func sameRows(t *testing.T, what string, want, got [][]float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d rows after restore, %d fitted", what, len(got), len(want))
	}
	for i := range want {
		sameBits(t, fmt.Sprintf("%s[%d]", what, i), want[i], got[i])
	}
}

func TestSaveLoadFile(t *testing.T) {
	cfg := persistFixtureCfg()
	orig := Build(cfg)
	path := filepath.Join(t.TempDir(), "pipeline.gob")
	if err := orig.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadFile(persistFixtureCfg(), path)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Predictor == nil || restored.Profile == nil {
		t.Fatal("restored pipeline incomplete")
	}
}

func TestLoadRejectsMismatch(t *testing.T) {
	cfg := persistFixtureCfg()
	orig := Build(cfg)
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}

	wrongSeed := persistFixtureCfg()
	wrongSeed.Seed = 78
	if _, err := Load(wrongSeed, bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("seed mismatch not rejected")
	}

	wrongDataset := persistFixtureCfg()
	wrongDataset.Dataset = dataset.VehicleCounting(dataset.Config{N: 900, Seed: 77})
	if _, err := Load(wrongDataset, bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("dataset mismatch not rejected")
	}

	wrongSize := persistFixtureCfg()
	wrongSize.Dataset = dataset.TextMatching(dataset.Config{N: 500, Seed: 77})
	if _, err := Load(wrongSize, bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("size mismatch not rejected")
	}

	// Same seed, dataset and size, but a scaffold the snapshot was not
	// fitted on: each must be rejected by name.
	otherModels := persistFixtureCfg()
	otherModels.Models = model.TextMatchingModels(78)
	otherAggregator := persistFixtureCfg()
	otherAggregator.Aggregator = &ensemble.Vote{}
	otherSplits := persistFixtureCfg()
	otherSplits.TrainFrac = 0.4
	// Same scaffold, fitted with other settings: each is named too.
	otherEpochs := persistFixtureCfg()
	otherEpochs.PredictorEpochs = 16
	otherBins := persistFixtureCfg()
	otherBins.Bins = 12
	uncalibrated := persistFixtureCfg()
	uncalibrated.DisableCalibration = true
	for _, c := range []struct {
		name, want string
		cfg        Config
	}{
		{"models", "model outputs", otherModels},
		{"aggregator", "aggregator", otherAggregator},
		{"splits", "splits", otherSplits},
		{"epochs", "PredictorEpochs", otherEpochs},
		{"bins", "Bins", otherBins},
		{"calibration", "DisableCalibration", uncalibrated},
	} {
		_, err := Load(c.cfg, bytes.NewReader(buf.Bytes()))
		if err == nil {
			t.Errorf("%s mismatch not rejected", c.name)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s mismatch rejected as %q, want it to name %q", c.name, err, c.want)
		}
	}

	if _, err := Load(persistFixtureCfg(), bytes.NewReader([]byte("garbage"))); err == nil {
		t.Error("garbage snapshot not rejected")
	}
}
