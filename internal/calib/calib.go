// Package calib implements temperature scaling (Guo et al., ICML 2017), the
// post-hoc calibration step Schemble applies to base-model outputs before
// computing discrepancy scores. Deep models are systematically
// over-confident; dividing the logits by a temperature T > 1 fitted by
// minimizing validation NLL aligns confidence with correctness likelihood,
// which the paper requires so that divergences between heterogeneous models
// are comparable.
package calib

import (
	"math"

	"schemble/internal/mathx"
)

// Scaler holds a fitted temperature.
type Scaler struct {
	T float64
}

// Apply returns probs rescaled through temperature T: softmax(log(p)/T).
// A fresh slice is returned; probs is unmodified.
func (s *Scaler) Apply(probs []float64) []float64 {
	//schemble:floateq-ok T is set verbatim, never computed; exactly 1 is the identity-scaler sentinel
	if s.T == 1 {
		cp := make([]float64, len(probs))
		copy(cp, probs)
		return cp
	}
	logits := make([]float64, len(probs))
	for i, p := range probs {
		logits[i] = math.Log(mathx.Clamp(p, mathx.Eps, 1)) / s.T
	}
	return mathx.Softmax(logits)
}

// NLL computes the mean negative log-likelihood of probability rows probs
// against integer labels under temperature t.
func NLL(probs [][]float64, labels []int, t float64) float64 {
	var total float64
	s := &Scaler{T: t}
	for i, p := range probs {
		q := s.Apply(p)
		total += -math.Log(mathx.Clamp(q[labels[i]], mathx.Eps, 1))
	}
	return total / float64(len(probs))
}

// Fit finds the temperature in [0.05, 20] minimizing NLL on the validation
// rows via golden-section search on log T. It panics when probs is empty or
// sizes mismatch.
func Fit(probs [][]float64, labels []int) *Scaler {
	if len(probs) == 0 || len(probs) != len(labels) {
		panic("calib: empty or mismatched calibration data")
	}
	// Golden-section search over log-temperature.
	lo, hi := math.Log(0.05), math.Log(20.0)
	const phi = 0.6180339887498949
	f := func(logT float64) float64 { return NLL(probs, labels, math.Exp(logT)) }
	a, b := lo, hi
	c := b - phi*(b-a)
	d := a + phi*(b-a)
	fc, fd := f(c), f(d)
	for i := 0; i < 60 && b-a > 1e-6; i++ {
		if fc < fd {
			b, d, fd = d, c, fc
			c = b - phi*(b-a)
			fc = f(c)
		} else {
			a, c, fc = c, d, fd
			d = a + phi*(b-a)
			fd = f(d)
		}
	}
	return &Scaler{T: math.Exp(0.5 * (a + b))}
}
