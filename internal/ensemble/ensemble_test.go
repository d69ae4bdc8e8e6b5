package ensemble

import (
	"math"
	"testing"
	"testing/quick"

	"schemble/internal/dataset"
	"schemble/internal/mathx"
	"schemble/internal/model"
)

func TestSubsetBasics(t *testing.T) {
	s := Single(0).With(2)
	if !s.Contains(0) || s.Contains(1) || !s.Contains(2) {
		t.Fatalf("membership wrong: %v", s)
	}
	if s.Size() != 2 {
		t.Errorf("Size = %d", s.Size())
	}
	if got := s.String(); got != "{0,2}" {
		t.Errorf("String = %q", got)
	}
	if s.Without(0) != Single(2) {
		t.Error("Without failed")
	}
	models := Full(3).Models()
	if len(models) != 3 || models[0] != 0 || models[2] != 2 {
		t.Errorf("Models = %v", models)
	}
}

func TestAllSubsets(t *testing.T) {
	subs := AllSubsets(3)
	if len(subs) != 7 {
		t.Fatalf("len = %d, want 7", len(subs))
	}
	seen := map[Subset]bool{}
	for _, s := range subs {
		if s == Empty {
			t.Fatal("AllSubsets contains the empty set")
		}
		seen[s] = true
	}
	if len(seen) != 7 {
		t.Error("duplicate subsets")
	}
	if got := len(SubsetsOfSize(4, 2)); got != 6 {
		t.Errorf("SubsetsOfSize(4,2) = %d, want 6", got)
	}
}

func TestSubsetProperties(t *testing.T) {
	f := func(raw uint16, k uint8) bool {
		s := Subset(raw)
		idx := int(k % MaxModels)
		return s.With(idx).Contains(idx) &&
			!s.Without(idx).Contains(idx) &&
			s.With(idx).Size() >= s.Size()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func newTMEnsemble(agg Aggregator) (*Ensemble, *dataset.Dataset) {
	ds := dataset.TextMatching(dataset.Config{N: 800, Seed: 10})
	models := model.TextMatchingModels(11)
	return New(dataset.Classification, models, agg, nil), ds
}

func TestAverageClassification(t *testing.T) {
	e, ds := newTMEnsemble(&Average{})
	s := ds.Samples[0]
	out := e.PredictFull(s)
	if len(out.Probs) != 2 {
		t.Fatalf("probs len %d", len(out.Probs))
	}
	var sum float64
	for _, p := range out.Probs {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("probs sum %v", sum)
	}
	// Averaging over a singleton equals the single model's output.
	single := e.PredictSubset(s, Single(1))
	want := e.Models[1].Predict(s)
	for c := range want.Probs {
		if math.Abs(single.Probs[c]-want.Probs[c]) > 1e-12 {
			t.Errorf("singleton average differs at class %d", c)
		}
	}
}

func TestEnsembleBeatsBaseModels(t *testing.T) {
	e, ds := newTMEnsemble(&Average{})
	correctFull, correctBest := 0, 0
	best := e.Models[2] // bert, strongest
	for _, s := range ds.Samples {
		if mathx.ArgMax(e.PredictFull(s).Probs) == s.Label {
			correctFull++
		}
		if mathx.ArgMax(best.Predict(s).Probs) == s.Label {
			correctBest++
		}
	}
	if correctFull <= correctBest-8 {
		t.Errorf("ensemble (%d) should be at least near the best base model (%d)",
			correctFull, correctBest)
	}
}

func TestVote(t *testing.T) {
	v := &Vote{}
	outs := []model.Output{
		{Probs: []float64{0.9, 0.1}},
		{Probs: []float64{0.8, 0.2}},
		{Probs: []float64{0.3, 0.7}},
	}
	out := v.Aggregate(dataset.Classification, outs, Full(3))
	if mathx.ArgMax(out.Probs) != 0 {
		t.Errorf("majority should be class 0: %v", out.Probs)
	}
	// Missing model 0: the two remaining split 1-1; summed probability
	// tie-break favors class 1 (0.2+0.7 > 0.8+0.3 is false -> class 0).
	out = v.Aggregate(dataset.Classification, outs, Full(3).Without(0))
	if mathx.ArgMax(out.Probs) != 0 {
		t.Errorf("tie-break should favor class 0: %v", out.Probs)
	}
}

func TestAverageRegression(t *testing.T) {
	agg := &Average{Weights: []float64{1, 3}}
	outs := []model.Output{{Value: 2}, {Value: 6}}
	got := agg.Aggregate(dataset.Regression, outs, Full(2)).Value
	if math.Abs(got-5) > 1e-12 { // (1*2+3*6)/4
		t.Errorf("weighted regression mean = %v, want 5", got)
	}
	// Dropping model 1 renormalizes onto model 0.
	got = agg.Aggregate(dataset.Regression, outs, Single(0)).Value
	if got != 2 {
		t.Errorf("renormalized mean = %v, want 2", got)
	}
}

func TestAverageRetrieval(t *testing.T) {
	agg := &Average{}
	outs := []model.Output{
		{Embedding: []float64{1, 0}},
		{Embedding: []float64{0, 1}},
	}
	emb := agg.Aggregate(dataset.Retrieval, outs, Full(2)).Embedding
	if math.Abs(mathx.Norm2(emb)-1) > 1e-9 {
		t.Errorf("aggregated embedding not unit norm: %v", emb)
	}
	if math.Abs(emb[0]-emb[1]) > 1e-9 {
		t.Errorf("should be diagonal: %v", emb)
	}
}

type constMeta struct{ p float64 }

func (c constMeta) Predict([]float64) float64 { return c.p }

type zeroFiller struct{}

func (zeroFiller) Name() string { return "zero" }
func (zeroFiller) Fill(outs []model.Output, present Subset) []model.Output {
	filled := make([]model.Output, len(outs))
	for k := range outs {
		if present.Contains(k) {
			filled[k] = outs[k]
		} else {
			filled[k] = model.Output{Probs: []float64{0.5, 0.5}}
		}
	}
	return filled
}

func TestStacking(t *testing.T) {
	st := &Stacking{Meta: constMeta{0.8}, Fill: zeroFiller{}, M: 3, Classes: 2}
	outs := []model.Output{
		{Probs: []float64{0.9, 0.1}},
		{Probs: []float64{0.8, 0.2}},
		{Probs: []float64{0.3, 0.7}},
	}
	out := st.Aggregate(dataset.Classification, outs, Full(3))
	if math.Abs(out.Probs[1]-0.8) > 1e-12 {
		t.Errorf("stacking P(1) = %v", out.Probs[1])
	}
	// Partial subset goes through the filler without panicking.
	out = st.Aggregate(dataset.Classification, outs, Single(0))
	if math.Abs(out.Probs[0]-0.2) > 1e-12 {
		t.Errorf("stacking P(0) = %v", out.Probs[0])
	}
	if got := st.Features(outs); len(got) != 6 {
		t.Errorf("feature len = %d, want 6", len(got))
	}
}

func TestStackingPartialWithoutFillerPanics(t *testing.T) {
	st := &Stacking{Meta: constMeta{0.5}, M: 2, Classes: 2}
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	st.Aggregate(dataset.Classification,
		[]model.Output{{Probs: []float64{1, 0}}, {}}, Single(0))
}

func TestScorerClassification(t *testing.T) {
	sc := &Scorer{Task: dataset.Classification}
	a := model.Output{Probs: []float64{0.6, 0.4}}
	b := model.Output{Probs: []float64{0.9, 0.1}}
	c := model.Output{Probs: []float64{0.2, 0.8}}
	if sc.Score(a, b) != 1 || sc.Score(a, c) != 0 {
		t.Error("classification agreement wrong")
	}
}

func TestScorerRegression(t *testing.T) {
	sc := &Scorer{Task: dataset.Regression, Tol: 1}
	if sc.Score(model.Output{Value: 5}, model.Output{Value: 5.9}) != 1 {
		t.Error("within tolerance should agree")
	}
	if sc.Score(model.Output{Value: 5}, model.Output{Value: 7}) != 0 {
		t.Error("outside tolerance should disagree")
	}
}

func TestScorerRetrievalPerfectAndNoisy(t *testing.T) {
	ds := dataset.ImageRetrieval(dataset.RetrievalConfig{
		Config: dataset.Config{N: 30, Seed: 12}, GallerySize: 120, EmbDim: 8})
	sc := NewScorer(ds)
	ref := ds.Samples[0].Embedding
	if ap := sc.Score(model.Output{Embedding: ref}, model.Output{Embedding: ref}); math.Abs(ap-1) > 1e-9 {
		t.Errorf("identical embeddings AP = %v, want 1", ap)
	}
	// A heavily perturbed embedding should rank worse.
	noisy := append([]float64(nil), ref...)
	for d := range noisy {
		noisy[d] = -noisy[d]
	}
	if ap := sc.Score(model.Output{Embedding: noisy}, model.Output{Embedding: ref}); ap > 0.5 {
		t.Errorf("opposite embedding AP = %v, want low", ap)
	}
}

func TestMeanScore(t *testing.T) {
	sc := &Scorer{Task: dataset.Classification}
	preds := []model.Output{
		{Probs: []float64{0.9, 0.1}},
		{Probs: []float64{0.1, 0.9}},
	}
	refs := []model.Output{
		{Probs: []float64{0.8, 0.2}},
		{Probs: []float64{0.9, 0.1}},
	}
	if got := sc.MeanScore(preds, refs); got != 0.5 {
		t.Errorf("MeanScore = %v, want 0.5", got)
	}
}

func TestPredictEmptyPanics(t *testing.T) {
	e, ds := newTMEnsemble(&Average{})
	defer func() {
		if recover() == nil {
			t.Error("expected panic on empty subset")
		}
	}()
	e.PredictSubset(ds.Samples[0], Empty)
}
