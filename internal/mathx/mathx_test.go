package mathx

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSoftmaxBasic(t *testing.T) {
	p := Softmax([]float64{1, 2, 3})
	if len(p) != 3 {
		t.Fatalf("len = %d, want 3", len(p))
	}
	var sum float64
	for _, v := range p {
		if v <= 0 || v >= 1 {
			t.Errorf("softmax entry %v out of (0,1)", v)
		}
		sum += v
	}
	if !almostEqual(sum, 1, 1e-12) {
		t.Errorf("softmax sum = %v, want 1", sum)
	}
	if !(p[2] > p[1] && p[1] > p[0]) {
		t.Errorf("softmax not monotone: %v", p)
	}
}

func TestSoftmaxStability(t *testing.T) {
	p := Softmax([]float64{1000, 1001, 1002})
	for _, v := range p {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("softmax overflowed: %v", p)
		}
	}
	q := Softmax([]float64{0, 1, 2})
	for i := range p {
		if !almostEqual(p[i], q[i], 1e-12) {
			t.Errorf("shift invariance violated at %d: %v vs %v", i, p[i], q[i])
		}
	}
}

func TestSoftmaxShiftInvarianceProperty(t *testing.T) {
	f := func(a, b, c, shift float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsNaN(c) || math.IsNaN(shift) {
			return true
		}
		a, b, c = Clamp(a, -50, 50), Clamp(b, -50, 50), Clamp(c, -50, 50)
		shift = Clamp(shift, -50, 50)
		p := Softmax([]float64{a, b, c})
		q := Softmax([]float64{a + shift, b + shift, c + shift})
		for i := range p {
			if !almostEqual(p[i], q[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSigmoid(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{1000, 1},
		{-1000, 0},
	}
	for _, c := range cases {
		if got := Sigmoid(c.x); !almostEqual(got, c.want, 1e-9) {
			t.Errorf("Sigmoid(%v) = %v, want %v", c.x, got, c.want)
		}
	}
	// Symmetry: sigma(-x) = 1 - sigma(x).
	for _, x := range []float64{0.3, 2.5, 7} {
		if !almostEqual(Sigmoid(-x), 1-Sigmoid(x), 1e-12) {
			t.Errorf("sigmoid symmetry violated at %v", x)
		}
	}
}

func randomDist(r *rand.Rand, n int) []float64 {
	p := make([]float64, n)
	for i := range p {
		p[i] = r.Float64() + 1e-6
	}
	Normalize(p)
	return p
}

func TestDivergenceProperties(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		p := randomDist(r, 4)
		q := randomDist(r, 4)
		if kl := KL(p, p); !almostEqual(kl, 0, 1e-9) {
			t.Fatalf("KL(p||p) = %v, want 0", kl)
		}
		if kl := KL(p, q); kl < 0 {
			t.Fatalf("KL(p||q) = %v < 0", kl)
		}
		js := JS(p, q)
		if js < 0 || js > math.Log(2)+1e-9 {
			t.Fatalf("JS out of [0, ln2]: %v", js)
		}
		if !almostEqual(js, JS(q, p), 1e-12) {
			t.Fatalf("JS not symmetric: %v vs %v", js, JS(q, p))
		}
		if !almostEqual(SymKL(p, q), SymKL(q, p), 1e-12) {
			t.Fatal("SymKL not symmetric")
		}
	}
}

func TestEuclideanAndDot(t *testing.T) {
	a := []float64{1, 2, 2}
	b := []float64{1, 0, 0}
	if got := Euclidean(a, b); !almostEqual(got, math.Sqrt(8), 1e-12) {
		t.Errorf("Euclidean = %v", got)
	}
	if got := Dot(a, b); got != 1 {
		t.Errorf("Dot = %v, want 1", got)
	}
	if got := Norm2([]float64{3, 4}); got != 5 {
		t.Errorf("Norm2 = %v, want 5", got)
	}
}

func TestCosineSim(t *testing.T) {
	if got := CosineSim([]float64{1, 0}, []float64{2, 0}); !almostEqual(got, 1, 1e-12) {
		t.Errorf("parallel cosine = %v", got)
	}
	if got := CosineSim([]float64{1, 0}, []float64{0, 3}); !almostEqual(got, 0, 1e-12) {
		t.Errorf("orthogonal cosine = %v", got)
	}
	if got := CosineSim([]float64{0, 0}, []float64{1, 1}); got != 0 {
		t.Errorf("zero-vector cosine = %v, want 0", got)
	}
}

func TestArgMaxArgMin(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	if i := ArgMax(xs); i != 5 {
		t.Errorf("ArgMax = %d, want 5", i)
	}
	if i := ArgMin(xs); i != 1 {
		t.Errorf("ArgMin = %d, want 1 (first of ties)", i)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {100, 5}, {50, 3}, {25, 2}, {75, 4},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("Percentile(nil) = %v", got)
	}
	// xs must be untouched.
	if xs[0] != 4 {
		t.Error("Percentile mutated its input")
	}
}

func TestPearson(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2, 4, 6, 8}
	if got := Pearson(xs, ys); !almostEqual(got, 1, 1e-12) {
		t.Errorf("perfect correlation = %v", got)
	}
	neg := []float64{8, 6, 4, 2}
	if got := Pearson(xs, neg); !almostEqual(got, -1, 1e-12) {
		t.Errorf("perfect anticorrelation = %v", got)
	}
	if got := Pearson(xs, []float64{5, 5, 5, 5}); got != 0 {
		t.Errorf("zero-variance correlation = %v, want 0", got)
	}
}

func TestNormalize(t *testing.T) {
	v := []float64{2, 2, 4}
	Normalize(v)
	want := []float64{0.25, 0.25, 0.5}
	for i := range v {
		if !almostEqual(v[i], want[i], 1e-12) {
			t.Errorf("Normalize[%d] = %v, want %v", i, v[i], want[i])
		}
	}
	z := []float64{0, 0}
	Normalize(z)
	if !almostEqual(z[0], 0.5, 1e-12) || !almostEqual(z[1], 0.5, 1e-12) {
		t.Errorf("Normalize zero vector = %v, want uniform", z)
	}
}

func TestMeanVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); !almostEqual(got, 5, 1e-12) {
		t.Errorf("Mean = %v", got)
	}
	if got := Variance(xs); !almostEqual(got, 4, 1e-12) {
		t.Errorf("Variance = %v", got)
	}
	if Mean(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Error("degenerate inputs should be 0")
	}
}

func TestClampAndMinMax(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Error("Clamp misbehaves")
	}
	min, max := MinMax([]float64{3, -2, 8, 0})
	if min != -2 || max != 8 {
		t.Errorf("MinMax = %v,%v", min, max)
	}
}

func TestPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("KL mismatch", func() { KL([]float64{1}, []float64{0.5, 0.5}) })
	mustPanic("ArgMax empty", func() { ArgMax(nil) })
	mustPanic("MinMax empty", func() { MinMax(nil) })
	mustPanic("Dot mismatch", func() { Dot([]float64{1}, []float64{1, 2}) })
}
