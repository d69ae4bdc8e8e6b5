package rng

import (
	"math"
	"testing"
	"testing/quick"

	"schemble/internal/mathx"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d collisions between differently seeded streams", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	child := parent.Split()
	// Child stream should not replicate the parent stream.
	p := New(7)
	p.Uint64() // parent consumed one value during Split
	matches := 0
	for i := 0; i < 100; i++ {
		if child.Uint64() == p.Uint64() {
			matches++
		}
	}
	if matches > 1 {
		t.Errorf("child correlates with parent: %d matches", matches)
	}
}

// TestReseedMatchesNew: a Source reseeded in place, after any use, runs the
// stream New starts for that seed, and reseeding allocates nothing.
func TestReseedMatchesNew(t *testing.T) {
	r := New(1)
	for _, seed := range []uint64{42, 7, 42} {
		r.Uint64()
		r.Reseed(seed)
		want := New(seed)
		for i := 0; i < 100; i++ {
			if r.Uint64() != want.Uint64() {
				t.Fatalf("seed %d: reseeded stream diverged at step %d", seed, i)
			}
		}
	}
	if n := testing.AllocsPerRun(100, func() { r.Reseed(Mix(9, r.Uint64())) }); n != 0 {
		t.Errorf("Reseed(Mix(...)) allocates %v times per call", n)
	}
}

// TestMixDistinctKeys: under one seed, nearby keys name distinct streams
// whose first draws do not collide, and another seed renames them all.
func TestMixDistinctKeys(t *testing.T) {
	seen := map[uint64]bool{}
	first := map[uint64]bool{}
	for key := uint64(0); key < 4096; key++ {
		m := Mix(5, key)
		if seen[m] {
			t.Fatalf("key %d repeats an earlier key's stream", key)
		}
		seen[m] = true
		first[New(m).Uint64()] = true
		if Mix(6, key) == m {
			t.Errorf("key %d: seeds 5 and 6 name the same stream", key)
		}
	}
	if len(first) != len(seen) {
		t.Errorf("%d first draws over %d streams", len(first), len(seen))
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestUniformMoments(t *testing.T) {
	r := New(11)
	n := 50000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.Uniform(2, 6)
	}
	if m := mathx.Mean(xs); math.Abs(m-4) > 0.05 {
		t.Errorf("uniform mean = %v, want ~4", m)
	}
	min, max := mathx.MinMax(xs)
	if min < 2 || max >= 6 {
		t.Errorf("uniform range violated: [%v, %v]", min, max)
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(13)
	n := 100000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.Normal(5, 2)
	}
	if m := mathx.Mean(xs); math.Abs(m-5) > 0.05 {
		t.Errorf("normal mean = %v, want ~5", m)
	}
	if s := math.Sqrt(mathx.Variance(xs)); math.Abs(s-2) > 0.05 {
		t.Errorf("normal stddev = %v, want ~2", s)
	}
}

func TestExponentialMoments(t *testing.T) {
	r := New(17)
	n := 100000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.Exponential(4)
	}
	if m := mathx.Mean(xs); math.Abs(m-0.25) > 0.01 {
		t.Errorf("exponential mean = %v, want ~0.25", m)
	}
	for _, x := range xs[:100] {
		if x < 0 {
			t.Fatalf("negative exponential draw %v", x)
		}
	}
}

func TestGammaMoments(t *testing.T) {
	r := New(19)
	for _, tc := range []struct{ shape, scale float64 }{
		{0.5, 1}, {2, 3}, {5, 0.5},
	} {
		n := 60000
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Gamma(tc.shape, tc.scale)
		}
		wantMean := tc.shape * tc.scale
		wantVar := tc.shape * tc.scale * tc.scale
		if m := mathx.Mean(xs); math.Abs(m-wantMean) > 0.05*wantMean+0.02 {
			t.Errorf("gamma(%v,%v) mean = %v, want ~%v", tc.shape, tc.scale, m, wantMean)
		}
		if v := mathx.Variance(xs); math.Abs(v-wantVar) > 0.1*wantVar+0.05 {
			t.Errorf("gamma(%v,%v) var = %v, want ~%v", tc.shape, tc.scale, v, wantVar)
		}
	}
}

func TestBetaMoments(t *testing.T) {
	r := New(23)
	a, b := 2.0, 5.0
	n := 60000
	xs := make([]float64, n)
	for i := range xs {
		x := r.Beta(a, b)
		if x < 0 || x > 1 {
			t.Fatalf("beta draw out of [0,1]: %v", x)
		}
		xs[i] = x
	}
	wantMean := a / (a + b)
	if m := mathx.Mean(xs); math.Abs(m-wantMean) > 0.01 {
		t.Errorf("beta mean = %v, want ~%v", m, wantMean)
	}
}

func TestPoissonMoments(t *testing.T) {
	r := New(29)
	for _, lambda := range []float64{0.5, 4, 50} {
		n := 40000
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(r.Poisson(lambda))
		}
		if m := mathx.Mean(xs); math.Abs(m-lambda) > 0.05*lambda+0.03 {
			t.Errorf("poisson(%v) mean = %v", lambda, m)
		}
		if v := mathx.Variance(xs); math.Abs(v-lambda) > 0.1*lambda+0.05 {
			t.Errorf("poisson(%v) var = %v", lambda, v)
		}
	}
	if r.Poisson(0) != 0 || r.Poisson(-1) != 0 {
		t.Error("non-positive lambda should yield 0")
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(31)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := r.Intn(5)
		if v < 0 || v >= 5 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 5 {
		t.Errorf("Intn did not hit all buckets: %v", seen)
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64) bool {
		r := New(seed)
		n := 1 + r.Intn(50)
		p := r.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestShuffle(t *testing.T) {
	r := New(37)
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	orig := append([]int(nil), xs...)
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	sum := 0
	for _, v := range xs {
		sum += v
	}
	wantSum := 0
	for _, v := range orig {
		wantSum += v
	}
	if sum != wantSum {
		t.Errorf("shuffle altered elements: %v", xs)
	}
}
