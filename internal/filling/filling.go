// Package filling handles missing base-model outputs when only a subset of
// an ensemble was executed (Section VII of the paper). Voting and averaging
// aggregators handle absence natively (exclusion / reweighting, implemented
// in package ensemble); stacking needs concrete values, which the KNN
// filler supplies by searching a bank of historical *full* inference
// records for the nearest neighbours of the observed partial output and
// imputing the unobserved entries with their distance-weighted average.
package filling

import (
	"math"
	"sort"

	"schemble/internal/ensemble"
	"schemble/internal/model"
)

// Record is one historical full-inference result: every base model's output
// on some past sample.
type Record struct {
	Outputs []model.Output
}

// KNN fills missing classification outputs from a bank of historical full
// records. It implements ensemble.Filler.
type KNN struct {
	K    int
	bank []Record
	m    int
}

// NewKNN builds a filler over the historical bank. k defaults to 10 (the
// paper shows robustness across 1..100). It panics when the bank is empty.
func NewKNN(k int, bank []Record) *KNN {
	if len(bank) == 0 {
		panic("filling: empty history bank")
	}
	if k <= 0 {
		k = 10
	}
	return &KNN{K: k, bank: bank, m: len(bank[0].Outputs)}
}

// Name implements ensemble.Filler.
func (f *KNN) Name() string { return "knn" }

// distance compares the observed (present) outputs of a query against the
// same coordinates of a historical record.
func distance(outs []model.Output, rec Record, present ensemble.Subset) float64 {
	var d float64
	for k := range outs {
		if !present.Contains(k) {
			continue
		}
		for c, p := range outs[k].Probs {
			diff := p - rec.Outputs[k].Probs[c]
			d += diff * diff
		}
	}
	return math.Sqrt(d)
}

// Fill implements ensemble.Filler: missing outputs become the
// distance-weighted average of the K nearest historical records.
func (f *KNN) Fill(outs []model.Output, present ensemble.Subset) []model.Output {
	type cand struct {
		idx  int
		dist float64
	}
	cands := make([]cand, len(f.bank))
	for i := range f.bank {
		cands[i] = cand{i, distance(outs, f.bank[i], present)}
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].dist < cands[b].dist })
	k := f.K
	if k > len(cands) {
		k = len(cands)
	}
	top := cands[:k]

	filled := make([]model.Output, len(outs))
	for mi := range outs {
		if present.Contains(mi) {
			filled[mi] = outs[mi]
			continue
		}
		dim := len(f.bank[0].Outputs[mi].Probs)
		probs := make([]float64, dim)
		var totalW float64
		for _, c := range top {
			w := 1 / (c.dist + 1e-6)
			totalW += w
			for ci, p := range f.bank[c.idx].Outputs[mi].Probs {
				probs[ci] += w * p
			}
		}
		for ci := range probs {
			probs[ci] /= totalW
		}
		filled[mi] = model.Output{Probs: probs}
	}
	return filled
}

// Uniform fills missing classification outputs with the uniform
// distribution — the trivial baseline the KNN filler is compared against in
// the abl-fill ablation.
type Uniform struct {
	Classes int
}

// Name implements ensemble.Filler.
func (u *Uniform) Name() string { return "uniform" }

// Fill implements ensemble.Filler.
func (u *Uniform) Fill(outs []model.Output, present ensemble.Subset) []model.Output {
	filled := make([]model.Output, len(outs))
	flat := make([]float64, u.Classes)
	for c := range flat {
		flat[c] = 1 / float64(u.Classes)
	}
	for k := range outs {
		if present.Contains(k) {
			filled[k] = outs[k]
		} else {
			filled[k] = model.Output{Probs: append([]float64(nil), flat...)}
		}
	}
	return filled
}

// MeanOfPresent fills missing outputs with the mean of the executed ones —
// a second ablation baseline that, unlike Uniform, at least carries the
// query's signal.
type MeanOfPresent struct{}

// Name implements ensemble.Filler.
func (MeanOfPresent) Name() string { return "mean-of-present" }

// Fill implements ensemble.Filler.
func (MeanOfPresent) Fill(outs []model.Output, present ensemble.Subset) []model.Output {
	var dim, n int
	for k := range outs {
		if present.Contains(k) {
			dim = len(outs[k].Probs)
			n++
		}
	}
	mean := make([]float64, dim)
	for k := range outs {
		if present.Contains(k) {
			for c, p := range outs[k].Probs {
				mean[c] += p
			}
		}
	}
	for c := range mean {
		mean[c] /= float64(n)
	}
	filled := make([]model.Output, len(outs))
	for k := range outs {
		if present.Contains(k) {
			filled[k] = outs[k]
		} else {
			filled[k] = model.Output{Probs: append([]float64(nil), mean...)}
		}
	}
	return filled
}
