// Package mathx provides the small numeric kernel shared by the rest of the
// repository: numerically stable softmax and divergences, summary statistics,
// and vector helpers. Everything operates on []float64 and allocates only when
// a result slice is returned.
package mathx

import (
	"math"
	"sort"
)

// Eps is the floor used when clamping probabilities before taking logs.
const Eps = 1e-12

// Softmax writes the softmax of logits into a new slice. It is numerically
// stable: the max logit is subtracted before exponentiation.
func Softmax(logits []float64) []float64 {
	out := make([]float64, len(logits))
	SoftmaxInto(out, logits)
	return out
}

// SoftmaxInto computes the softmax of logits into dst, which must have the
// same length as logits.
func SoftmaxInto(dst, logits []float64) {
	if len(dst) != len(logits) {
		panic("mathx: SoftmaxInto length mismatch")
	}
	if len(logits) == 0 {
		return
	}
	max := logits[0]
	for _, v := range logits[1:] {
		if v > max {
			max = v
		}
	}
	var sum float64
	for i, v := range logits {
		e := math.Exp(v - max)
		dst[i] = e
		sum += e
	}
	for i := range dst {
		dst[i] /= sum
	}
}

// Sigmoid returns 1/(1+exp(-x)) without overflow for large |x|.
func Sigmoid(x float64) float64 {
	if x >= 0 {
		z := math.Exp(-x)
		return 1 / (1 + z)
	}
	z := math.Exp(x)
	return z / (1 + z)
}

// clampProb clips p into [Eps, 1] so logs are finite.
func clampProb(p float64) float64 {
	if p < Eps {
		return Eps
	}
	return p
}

// KL returns the Kullback-Leibler divergence KL(p||q) in nats. Both arguments
// must be probability vectors of the same length. Zero entries are clamped.
func KL(p, q []float64) float64 {
	if len(p) != len(q) {
		panic("mathx: KL length mismatch")
	}
	var d float64
	for i := range p {
		pi := clampProb(p[i])
		qi := clampProb(q[i])
		d += pi * math.Log(pi/qi)
	}
	if d < 0 { // tiny negatives from rounding
		return 0
	}
	return d
}

// SymKL returns the symmetric KL divergence (KL(p||q)+KL(q||p))/2, the
// measure used by the ensemble-agreement difficulty metric.
func SymKL(p, q []float64) float64 {
	return 0.5 * (KL(p, q) + KL(q, p))
}

// JS returns the Jensen-Shannon divergence between p and q in nats. It is
// symmetric and bounded by ln 2.
func JS(p, q []float64) float64 {
	if len(p) != len(q) {
		panic("mathx: JS length mismatch")
	}
	m := make([]float64, len(p))
	for i := range p {
		m[i] = 0.5 * (p[i] + q[i])
	}
	return 0.5*KL(p, m) + 0.5*KL(q, m)
}

// Euclidean returns the L2 distance between two vectors.
func Euclidean(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("mathx: Euclidean length mismatch")
	}
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// Dot returns the inner product of a and b.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("mathx: Dot length mismatch")
	}
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// CosineSim returns the cosine similarity of a and b, or 0 when either has
// zero norm.
func CosineSim(a, b []float64) float64 {
	na, nb := Norm2(a), Norm2(b)
	if na == 0 || nb == 0 {
		return 0
	}
	return Dot(a, b) / (na * nb)
}

// ArgMax returns the index of the largest element; ties go to the lowest
// index. It panics on an empty slice.
func ArgMax(xs []float64) int {
	if len(xs) == 0 {
		panic("mathx: ArgMax of empty slice")
	}
	best := 0
	for i, v := range xs[1:] {
		if v > xs[best] {
			best = i + 1
		}
	}
	return best
}

// ArgMin returns the index of the smallest element; ties go to the lowest
// index. It panics on an empty slice.
func ArgMin(xs []float64) int {
	if len(xs) == 0 {
		panic("mathx: ArgMin of empty slice")
	}
	best := 0
	for i, v := range xs[1:] {
		if v < xs[best] {
			best = i + 1
		}
	}
	return best
}

// Mean returns the arithmetic mean, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance, or 0 for fewer than two values.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// Percentile returns the p-th percentile (0..100) of xs using linear
// interpolation between closest ranks. It returns 0 for an empty slice and
// does not modify xs.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Pearson returns the Pearson correlation coefficient between xs and ys, or 0
// when either side has zero variance. The slices must have equal length.
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) {
		panic("mathx: Pearson length mismatch")
	}
	if len(xs) < 2 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Clamp limits x to the inclusive range [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Normalize scales v in place so it sums to one. Vectors summing to zero are
// replaced by the uniform distribution.
func Normalize(v []float64) {
	var s float64
	for _, x := range v {
		s += x
	}
	if s == 0 {
		u := 1 / float64(len(v))
		for i := range v {
			v[i] = u
		}
		return
	}
	for i := range v {
		v[i] /= s
	}
}

// MinMax returns the smallest and largest elements of xs. It panics on an
// empty slice.
func MinMax(xs []float64) (min, max float64) {
	if len(xs) == 0 {
		panic("mathx: MinMax of empty slice")
	}
	min, max = xs[0], xs[0]
	for _, v := range xs[1:] {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return min, max
}

// AlmostEqual reports whether a and b agree within tol, absolutely for
// values near zero and relatively otherwise. It is the approved way to
// compare computed floating-point values — exact ==/!= on floats is
// rejected by the floateq analyzer outside this package — and treats two
// NaNs as equal so comparisons of sentinel results are stable.
func AlmostEqual(a, b, tol float64) bool {
	if a == b {
		return true // fast path; also handles shared infinities
	}
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	diff := math.Abs(a - b)
	if diff <= tol {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= tol*scale
}
