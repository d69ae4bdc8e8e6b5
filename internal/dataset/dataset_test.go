package dataset

import (
	"math"
	"testing"

	"schemble/internal/mathx"
	"schemble/internal/rng"
)

func TestTextMatchingShape(t *testing.T) {
	ds := TextMatching(Config{N: 500, Seed: 1})
	if ds.Task != Classification || ds.Classes != 2 {
		t.Fatalf("wrong task metadata: %v %d", ds.Task, ds.Classes)
	}
	if len(ds.Samples) != 500 {
		t.Fatalf("N = %d", len(ds.Samples))
	}
	for _, s := range ds.Samples {
		if len(s.Features) != FeatureDim {
			t.Fatalf("feature dim = %d", len(s.Features))
		}
		if s.Difficulty < 0 || s.Difficulty > 1 {
			t.Fatalf("difficulty out of range: %v", s.Difficulty)
		}
		if s.Label != 0 && s.Label != 1 {
			t.Fatalf("label = %d", s.Label)
		}
	}
}

func TestDifficultyMassNearZero(t *testing.T) {
	// The default mixture must reproduce Fig. 4a: most samples easy.
	ds := TextMatching(Config{N: 5000, Seed: 2})
	low := 0
	for _, s := range ds.Samples {
		if s.Difficulty < 0.25 {
			low++
		}
	}
	if frac := float64(low) / 5000; frac < 0.5 {
		t.Errorf("only %.2f of samples have difficulty < 0.25; want most", frac)
	}
}

func TestFeaturesCarryDifficultySignal(t *testing.T) {
	ds := TextMatching(Config{N: 3000, Seed: 3})
	var f0, h []float64
	for _, s := range ds.Samples {
		f0 = append(f0, s.Features[0])
		h = append(h, s.Difficulty)
	}
	if r := mathx.Pearson(f0, h); r < 0.6 {
		t.Errorf("feature[0] vs difficulty correlation = %v, want >= 0.6", r)
	}
}

func TestVehicleCounting(t *testing.T) {
	ds := VehicleCounting(Config{N: 1000, Seed: 4})
	if ds.Task != Regression {
		t.Fatal("wrong task")
	}
	if ds.Cameras != 24 {
		t.Errorf("cameras = %d, want 24", ds.Cameras)
	}
	var easyCounts, hardCounts []float64
	for _, s := range ds.Samples {
		if s.Value < 0 {
			t.Fatalf("negative count %v", s.Value)
		}
		if s.CameraID < 0 || s.CameraID >= 24 {
			t.Fatalf("camera id %d", s.CameraID)
		}
		if s.Difficulty < 0.2 {
			easyCounts = append(easyCounts, s.Value)
		} else if s.Difficulty > 0.6 {
			hardCounts = append(hardCounts, s.Value)
		}
	}
	if mathx.Mean(hardCounts) <= mathx.Mean(easyCounts) {
		t.Error("hard frames should carry more vehicles on average")
	}
}

func TestImageRetrieval(t *testing.T) {
	ds := ImageRetrieval(RetrievalConfig{Config: Config{N: 200, Seed: 5}, GallerySize: 300, EmbDim: 8})
	if ds.Task != Retrieval {
		t.Fatal("wrong task")
	}
	if len(ds.Gallery) != 300 || ds.EmbDim != 8 {
		t.Fatalf("gallery %d dim %d", len(ds.Gallery), ds.EmbDim)
	}
	for _, g := range ds.Gallery {
		if math.Abs(mathx.Norm2(g)-1) > 1e-9 {
			t.Fatal("gallery embedding not unit norm")
		}
	}
	for _, s := range ds.Samples {
		if math.Abs(mathx.Norm2(s.Embedding)-1) > 1e-9 {
			t.Fatal("query embedding not unit norm")
		}
	}
}

func TestGenerationDeterminism(t *testing.T) {
	a := TextMatching(Config{N: 100, Seed: 6})
	b := TextMatching(Config{N: 100, Seed: 6})
	for i := range a.Samples {
		if a.Samples[i].Difficulty != b.Samples[i].Difficulty ||
			a.Samples[i].Label != b.Samples[i].Label {
			t.Fatal("generation not deterministic")
		}
	}
	c := TextMatching(Config{N: 100, Seed: 7})
	same := 0
	for i := range a.Samples {
		if a.Samples[i].Difficulty == c.Samples[i].Difficulty {
			same++
		}
	}
	if same == len(a.Samples) {
		t.Error("different seeds produced identical datasets")
	}
}

func TestDifficultySpecs(t *testing.T) {
	src := rng.New(8)
	normal := DifficultySpec{Kind: NormalDist, Mean: 0.5}
	var xs []float64
	for i := 0; i < 5000; i++ {
		v := normal.Sample(src)
		if v < 0 || v > 1 {
			t.Fatalf("normal difficulty out of range: %v", v)
		}
		xs = append(xs, v)
	}
	if m := mathx.Mean(xs); math.Abs(m-0.5) > 0.01 {
		t.Errorf("normal mean = %v", m)
	}
	if s := math.Sqrt(mathx.Variance(xs)); math.Abs(s-0.03) > 0.01 {
		t.Errorf("normal stddev = %v, want ~0.03 (paper setting)", s)
	}

	gamma := DifficultySpec{Kind: GammaDist, Mean: 0.3}
	xs = xs[:0]
	for i := 0; i < 5000; i++ {
		v := gamma.Sample(src)
		if v < 0 || v > 1 {
			t.Fatalf("gamma difficulty out of range: %v", v)
		}
		xs = append(xs, v)
	}
	if m := mathx.Mean(xs); math.Abs(m-0.3) > 0.05 {
		t.Errorf("gamma mean = %v, want ~0.3", m)
	}

	if c := (DifficultySpec{Kind: ConstantDist, Mean: 0.4}).Sample(src); c != 0.4 {
		t.Errorf("constant = %v", c)
	}
	u := (DifficultySpec{Kind: UniformDist}).Sample(src)
	if u < 0 || u > 1 {
		t.Errorf("uniform = %v", u)
	}
}

func TestSplit(t *testing.T) {
	ds := TextMatching(Config{N: 1000, Seed: 9})
	train, val, test := ds.Split(0.6, 0.2, 42)
	if len(train) != 600 || len(val) != 200 || len(test) != 200 {
		t.Fatalf("split sizes %d/%d/%d", len(train), len(val), len(test))
	}
	seen := map[int]bool{}
	for _, part := range [][]*Sample{train, val, test} {
		for _, s := range part {
			if seen[s.ID] {
				t.Fatalf("sample %d appears twice", s.ID)
			}
			seen[s.ID] = true
		}
	}
	if len(seen) != 1000 {
		t.Fatalf("split lost samples: %d", len(seen))
	}
	// Deterministic.
	train2, _, _ := ds.Split(0.6, 0.2, 42)
	if train[0].ID != train2[0].ID {
		t.Error("split not deterministic")
	}
}
