package pipeline

import (
	"bytes"
	"sync"
	"testing"

	"schemble/internal/dataset"
	"schemble/internal/ensemble"
	"schemble/internal/model"
)

func saved(t *testing.T, a *Artifacts) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestShippedSnapshotCurrent fits the shipped deployment and fails unless
// it saves to exactly the bytes Build's restore of the embedded snapshot
// saves to: Build restores that snapshot instead of fitting, so it must be
// the fit it stands for. Both sides are saved in this process because gob
// numbers the types it sends in the order a process first encodes them, so
// the embedded bytes themselves are what a fresh process writes.
func TestShippedSnapshotCurrent(t *testing.T) {
	restored, ok := build(seed7Config())
	if !ok {
		t.Fatal("the shipped deployment did not restore the shipped snapshot")
	}
	fresh, want := saved(t, Fit(seed7Config())), saved(t, restored)
	if bytes.Equal(fresh, want) {
		return
	}
	at := 0
	for at < min(len(fresh), len(want)) && fresh[at] == want[at] {
		at++
	}
	t.Fatalf("internal/pipeline/shipped.snapshot is stale: a fresh fit of the shipped "+
		"deployment saves %d bytes, the restored snapshot %d, first difference at byte %d; "+
		"regenerate it with `make snapshot`", len(fresh), len(want), at)
}

// TestBuildFitsEveryOtherDeployment checks that Build restores the shipped
// snapshot only for the deployment it was fitted on: a config that differs
// in the identity (seed, dataset, sample count, fit settings) or only in
// the scaffold fingerprint (aggregator, splits) takes the fit path and
// saves what Fit saves.
func TestBuildFitsEveryOtherDeployment(t *testing.T) {
	with := func(edit func(*Config)) Config {
		cfg := seed7Config()
		edit(&cfg)
		return cfg
	}
	for _, c := range []struct {
		name          string
		cfg           Config
		byFingerprint bool // the identity matches; only the scaffold differs
	}{
		{"-quick", with(func(c *Config) {
			c.Dataset = dataset.TextMatching(dataset.Config{N: 1200, Seed: 7})
			c.PredictorEpochs = 25
		}), false},
		{"seed 8", Config{
			Dataset: dataset.TextMatching(dataset.Config{N: 4000, Seed: 8}),
			Models:  model.TextMatchingModels(8),
			Seed:    8,
		}, false},
		{"PredictorEpochs 149", with(func(c *Config) { c.PredictorEpochs = 149 }), false},
		{"Bins 9", with(func(c *Config) { c.Bins = 9 }), false},
		{"DisableCalibration", with(func(c *Config) { c.DisableCalibration = true }), false},
		{"Vote aggregator", with(func(c *Config) { c.Aggregator = &ensemble.Vote{} }), true},
		{"TrainFrac 0.4", with(func(c *Config) { c.TrainFrac = 0.4 }), true},
	} {
		t.Run(c.name, func(t *testing.T) {
			id, err := shippedIdentity()
			if err != nil {
				t.Fatal(err)
			}
			if err := id.check(resolved(c.cfg)); (err == nil) != c.byFingerprint {
				t.Fatalf("identity check = %v; want it to pass only when the fingerprint decides", err)
			}
			a, restored := build(c.cfg)
			if restored {
				t.Fatal("restored the shipped snapshot for another deployment")
			}
			if !bytes.Equal(saved(t, a), saved(t, Fit(c.cfg))) {
				t.Fatal("Build's fit path saves other bytes than Fit")
			}
		})
	}
}

// TestBuildSharesNothing checks that each Build of the shipped deployment
// decodes state of its own. Two Builds run at once, which under -race
// checks that they share only the embedded bytes and the identity decoded
// once; then mutating one result's scores, profile and predictor leaves the
// other, and a later Build, saving what they saved before.
func TestBuildSharesNothing(t *testing.T) {
	var arts [2]*Artifacts
	var restored [2]bool
	var wg sync.WaitGroup
	for i := range arts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			arts[i], restored[i] = build(seed7Config())
		}()
	}
	wg.Wait()
	if !restored[0] || !restored[1] {
		t.Fatal("the shipped deployment did not restore the shipped snapshot")
	}
	first, second := arts[0], arts[1]
	want := saved(t, first)
	if !bytes.Equal(saved(t, second), want) {
		t.Fatal("two Builds of the shipped deployment save different bytes")
	}
	first.TrueScores[first.Train[0].ID] += 0.5
	first.Profile.U[0][1] += 0.5
	first.Profile.Counts[0]++
	first.Predictor.InferCost *= 2
	first.Predictor.MemoryBytes++
	if bytes.Equal(saved(t, first), want) {
		t.Fatal("the mutations do not show in Save")
	}
	if !bytes.Equal(saved(t, second), want) {
		t.Fatal("a concurrent Build saw the first one's mutations")
	}
	if !bytes.Equal(saved(t, Build(seed7Config())), want) {
		t.Fatal("a later Build saw the first one's mutations")
	}
}
