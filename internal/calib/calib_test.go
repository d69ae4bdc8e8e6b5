package calib

import (
	"math"
	"testing"

	"schemble/internal/mathx"
	"schemble/internal/rng"
)

// synthOverconfident builds a miscalibrated binary dataset: the model's true
// accuracy is governed by a latent logit, but reported probabilities are
// sharpened by overTemp < 1 (overconfidence).
func synthOverconfident(src *rng.Source, n int, overTemp float64) ([][]float64, []int) {
	probs := make([][]float64, n)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		logit := src.Normal(0, 1.2)
		pTrue := mathx.Sigmoid(logit)
		label := 0
		if src.Bool(pTrue) {
			label = 1
		}
		// Report a sharpened probability.
		sharp := mathx.Sigmoid(logit / overTemp)
		probs[i] = []float64{1 - sharp, sharp}
		labels[i] = label
	}
	return probs, labels
}

func TestApplyIdentity(t *testing.T) {
	s := &Scaler{T: 1}
	p := []float64{0.3, 0.7}
	q := s.Apply(p)
	if q[0] != 0.3 || q[1] != 0.7 {
		t.Errorf("identity scaler changed probs: %v", q)
	}
	q[0] = 0 // must not alias
	if p[0] != 0.3 {
		t.Error("Apply aliased its input")
	}
}

func TestApplyHighTemperatureFlattens(t *testing.T) {
	s := &Scaler{T: 100}
	q := s.Apply([]float64{0.99, 0.01})
	if math.Abs(q[0]-0.5) > 0.05 {
		t.Errorf("high temperature should flatten: %v", q)
	}
	s = &Scaler{T: 0.1}
	q = s.Apply([]float64{0.6, 0.4})
	if q[0] < 0.95 {
		t.Errorf("low temperature should sharpen: %v", q)
	}
}

func TestApplyPreservesSimplex(t *testing.T) {
	src := rng.New(1)
	for _, temp := range []float64{0.3, 1, 2.7} {
		s := &Scaler{T: temp}
		for i := 0; i < 100; i++ {
			p := []float64{src.Float64() + 0.01, src.Float64() + 0.01, src.Float64() + 0.01}
			mathx.Normalize(p)
			q := s.Apply(p)
			var sum float64
			for _, v := range q {
				if v < 0 {
					t.Fatalf("negative prob %v", v)
				}
				sum += v
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("not a distribution, sum=%v", sum)
			}
		}
	}
}

func TestFitRecoversOverconfidence(t *testing.T) {
	src := rng.New(2)
	probs, labels := synthOverconfident(src, 5000, 0.4)
	s := Fit(probs, labels)
	// The data was sharpened with 1/0.4 = 2.5x logit scale, so the fitted
	// corrective temperature should be well above 1.
	if s.T < 1.5 {
		t.Errorf("fitted T = %v, want > 1.5 for overconfident model", s.T)
	}
	// NLL after calibration must not be worse than before.
	before := NLL(probs, labels, 1)
	after := NLL(probs, labels, s.T)
	if after > before+1e-9 {
		t.Errorf("calibration raised NLL: %v -> %v", before, after)
	}
}

func TestFitCalibratedDataNearOne(t *testing.T) {
	src := rng.New(3)
	probs, labels := synthOverconfident(src, 5000, 1.0)
	s := Fit(probs, labels)
	if s.T < 0.8 || s.T > 1.25 {
		t.Errorf("fitted T = %v on calibrated data, want ~1", s.T)
	}
}

func TestECEImprovesAfterScaling(t *testing.T) {
	src := rng.New(4)
	probs, labels := synthOverconfident(src, 8000, 0.4)
	before := ece(probs, labels, 15)
	s := Fit(probs, labels)
	scaled := make([][]float64, len(probs))
	for i, p := range probs {
		scaled[i] = s.Apply(p)
	}
	after := ece(scaled, labels, 15)
	if after >= before {
		t.Errorf("ECE did not improve: %v -> %v", before, after)
	}
}

func TestFitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Fit(nil) did not panic")
		}
	}()
	Fit(nil, nil)
}

// ece computes the expected calibration error of probs against labels using
// equal-width confidence bins, the standard miscalibration diagnostic.
func ece(probs [][]float64, labels []int, bins int) float64 {
	if bins <= 0 {
		bins = 10
	}
	type bucket struct {
		conf, acc float64
		n         int
	}
	bs := make([]bucket, bins)
	for i, p := range probs {
		pred := mathx.ArgMax(p)
		conf := p[pred]
		b := int(conf * float64(bins))
		if b >= bins {
			b = bins - 1
		}
		bs[b].conf += conf
		if pred == labels[i] {
			bs[b].acc++
		}
		bs[b].n++
	}
	var sum float64
	total := float64(len(probs))
	for _, b := range bs {
		if b.n == 0 {
			continue
		}
		n := float64(b.n)
		sum += n / total * math.Abs(b.acc/n-b.conf/n)
	}
	return sum
}
