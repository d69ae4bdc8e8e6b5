package schemble

import (
	"context"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

var (
	fwOnce sync.Once
	fw     *Framework
)

func framework(t *testing.T) *Framework {
	t.Helper()
	fwOnce.Do(func() {
		ds, models := TextMatchingBench(42)
		ds.Samples = ds.Samples[:2000] // keep the shared fixture quick
		fw = New(Config{Dataset: ds, Models: models, PredictorEpochs: 30, Seed: 42})
	})
	return fw
}

func TestBenchGenerators(t *testing.T) {
	tm, tmModels := TextMatchingBench(1)
	if len(tm.Samples) == 0 || len(tmModels) != 3 {
		t.Error("text matching bench malformed")
	}
	vc, vcModels := VehicleCountingBench(1)
	if len(vc.Samples) == 0 || len(vcModels) != 3 {
		t.Error("vehicle counting bench malformed")
	}
	ir, irModels := ImageRetrievalBench(1)
	if len(ir.Gallery) == 0 || len(irModels) != 2 {
		t.Error("image retrieval bench malformed")
	}
}

func TestPredictAndDifficulty(t *testing.T) {
	f := framework(t)
	s := f.ServingPool()[0]
	out := f.PredictFull(s)
	if len(out.Probs) != 2 {
		t.Fatalf("probs len %d", len(out.Probs))
	}
	d := f.Difficulty(s)
	if d < 0 || d > 1 {
		t.Errorf("difficulty %v out of range", d)
	}
	true_ := f.DiscrepancyScore(s)
	if true_ < 0 || true_ > 1 {
		t.Errorf("true score %v out of range", true_)
	}
	// Subset prediction works for any non-empty subset.
	sub := f.PredictSubset(s, Subset(1))
	if len(sub.Probs) != 2 {
		t.Error("subset prediction malformed")
	}
}

func TestRewardAndBestSubset(t *testing.T) {
	f := framework(t)
	full := Subset(7)
	if r := f.Reward(0.1, full); r < 0.99 {
		t.Errorf("full-ensemble reward %v, want ~1", r)
	}
	best := f.BestSubset(0.1, 0)
	if best == 0 {
		t.Fatal("empty best subset")
	}
	// With tolerance, the chosen subset can only shrink.
	tol := f.BestSubset(0.1, 0.05)
	if tol.Size() > best.Size() {
		t.Errorf("tolerant subset %v larger than exact best %v", tol, best)
	}
}

func TestSimulateBeatsOriginalUnderLoad(t *testing.T) {
	f := framework(t)
	tr := f.PoissonTrace(40, 800, 150*time.Millisecond, 9)
	sch, recs := f.Simulate(SimOptions{Trace: tr})
	orig, _ := f.SimulateOriginal(SimOptions{Trace: tr})
	if len(recs) != 800 {
		t.Fatalf("records %d", len(recs))
	}
	if sch.DMR >= orig.DMR {
		t.Errorf("Schemble DMR %v should beat Original %v", sch.DMR, orig.DMR)
	}
	if sch.Accuracy <= orig.Accuracy {
		t.Errorf("Schemble accuracy %v should beat Original %v", sch.Accuracy, orig.Accuracy)
	}
}

func TestOneDayTrace(t *testing.T) {
	f := framework(t)
	tr := f.OneDayTrace(100*time.Millisecond, 2, 3)
	if tr.N() == 0 {
		t.Fatal("empty one-day trace")
	}
}

func TestNewServerRoundTrip(t *testing.T) {
	f := framework(t)
	srv := f.NewServer(ServerOptions{TimeScale: 0.05})
	srv.Start(context.Background())
	defer srv.Stop()
	res := <-srv.Submit(f.ServingPool()[1], time.Second)
	if res.Missed {
		t.Error("uncontended request missed")
	}
}

func TestSummarizeReExport(t *testing.T) {
	s := Summarize([]Record{{Agreement: 1}})
	if s.N != 1 || s.Accuracy != 1 {
		t.Errorf("summary %+v", s)
	}
}

func TestSaveLoadFramework(t *testing.T) {
	f := framework(t)
	path := filepath.Join(t.TempDir(), "fw.gob")
	if err := f.Save(path); err != nil {
		t.Fatal(err)
	}
	ds, models := TextMatchingBench(42)
	ds.Samples = ds.Samples[:2000]
	restored, err := Load(Config{Dataset: ds, Models: models, PredictorEpochs: 30, Seed: 42}, path)
	if err != nil {
		t.Fatal(err)
	}
	s := f.ServingPool()[5]
	if restored.Difficulty(s) != f.Difficulty(s) {
		t.Error("restored framework predicts differently")
	}
	if _, err := Load(Config{Dataset: ds, Models: models, PredictorEpochs: 30, Seed: 43}, path); err == nil {
		t.Error("seed mismatch not rejected")
	}
	if _, err := Load(Config{Dataset: ds, Models: models, Seed: 42}, path); err == nil {
		t.Error("PredictorEpochs mismatch not rejected")
	}
}

func TestSubmitBeforeStartPanics(t *testing.T) {
	f := framework(t)
	srv := f.NewServer(ServerOptions{TimeScale: 0.1})
	defer func() {
		if recover() == nil {
			t.Error("Submit before Start did not panic")
		}
	}()
	srv.Submit(f.ServingPool()[0], time.Second)
}
