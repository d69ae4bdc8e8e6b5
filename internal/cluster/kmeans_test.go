package cluster

import (
	"errors"
	"math"
	"math/big"
	"testing"

	"schemble/internal/rng"
)

// blobs generates n points around each of the given centers.
func blobs(src *rng.Source, centers [][]float64, n int, spread float64) ([][]float64, []int) {
	var points [][]float64
	var labels []int
	for c, center := range centers {
		for i := 0; i < n; i++ {
			p := make([]float64, len(center))
			for d := range p {
				p[d] = src.Normal(center[d], spread)
			}
			points = append(points, p)
			labels = append(labels, c)
		}
	}
	return points, labels
}

// mustFit is the test helper for inputs that must fit cleanly.
func mustFit(t *testing.T, points [][]float64, k, maxIter int, src *rng.Source) *KMeans {
	t.Helper()
	km, err := Fit(points, k, maxIter, src)
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	return km
}

func TestSeparatesBlobs(t *testing.T) {
	src := rng.New(1)
	centers := [][]float64{{0, 0}, {10, 0}, {0, 10}}
	points, labels := blobs(src, centers, 100, 0.8)
	km := mustFit(t, points, 3, 50, src)

	// Every ground-truth blob should map (almost) entirely to one cluster.
	for c := 0; c < 3; c++ {
		counts := map[int]int{}
		total := 0
		for i, p := range points {
			if labels[i] != c {
				continue
			}
			counts[km.Assign(p)]++
			total++
		}
		best := 0
		for _, v := range counts {
			if v > best {
				best = v
			}
		}
		if purity := float64(best) / float64(total); purity < 0.98 {
			t.Errorf("blob %d purity = %v, want >= 0.98", c, purity)
		}
	}
}

func TestInertiaDecreasesWithK(t *testing.T) {
	src := rng.New(2)
	points, _ := blobs(src, [][]float64{{0, 0}, {5, 5}}, 100, 1.0)
	i1 := mustFit(t, points, 1, 30, rng.New(3)).Inertia(points)
	i2 := mustFit(t, points, 2, 30, rng.New(3)).Inertia(points)
	i4 := mustFit(t, points, 4, 30, rng.New(3)).Inertia(points)
	if !(i1 > i2 && i2 >= i4) {
		t.Errorf("inertia not decreasing: k1=%v k2=%v k4=%v", i1, i2, i4)
	}
}

func TestKGreaterThanPoints(t *testing.T) {
	points := [][]float64{{0}, {1}, {2}}
	km := mustFit(t, points, 10, 10, rng.New(4))
	if km.K() != 3 {
		t.Errorf("K = %d, want 3", km.K())
	}
	if km.Inertia(points) != 0 {
		t.Errorf("inertia = %v, want 0", km.Inertia(points))
	}
}

func TestAssignNearest(t *testing.T) {
	km := &KMeans{Centroids: [][]float64{{0, 0}, {10, 10}}}
	if c := km.Assign([]float64{1, 1}); c != 0 {
		t.Errorf("Assign near origin = %d, want 0", c)
	}
	if c := km.Assign([]float64{9, 9}); c != 1 {
		t.Errorf("Assign near (10,10) = %d, want 1", c)
	}
}

func TestDeterminism(t *testing.T) {
	src := rng.New(5)
	points, _ := blobs(src, [][]float64{{0, 0}, {6, 6}}, 50, 1.0)
	a := mustFit(t, points, 2, 30, rng.New(6))
	b := mustFit(t, points, 2, 30, rng.New(6))
	for i := range a.Centroids {
		for d := range a.Centroids[i] {
			if a.Centroids[i][d] != b.Centroids[i][d] {
				t.Fatal("k-means not deterministic under fixed seed")
			}
		}
	}
}

// TestDegenerateInput pins the replacement of the old panics: empty input
// is a typed error, out-of-range k is clamped, and dimension mismatches
// are rejected at the Fit boundary.
func TestDegenerateInput(t *testing.T) {
	pts := [][]float64{{0, 0}, {1, 1}, {2, 2}}
	tests := []struct {
		name    string
		points  [][]float64
		k       int
		wantErr bool
		wantK   int
	}{
		{name: "nil points", points: nil, k: 2, wantErr: true},
		{name: "empty points", points: [][]float64{}, k: 2, wantErr: true},
		{name: "k=0 clamps to 1", points: pts, k: 0, wantK: 1},
		{name: "negative k clamps to 1", points: pts, k: -7, wantK: 1},
		{name: "k beyond points clamps", points: pts, k: 10, wantK: 3},
		{name: "single point", points: [][]float64{{4}}, k: 3, wantK: 1},
		{name: "dim mismatch", points: [][]float64{{0, 0}, {1}}, k: 1, wantErr: true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			km, err := Fit(tc.points, tc.k, 10, rng.New(9))
			if tc.wantErr {
				if err == nil {
					t.Fatalf("Fit(%s) err = nil, want error", tc.name)
				}
				if len(tc.points) == 0 && !errors.Is(err, ErrNoPoints) {
					t.Errorf("empty input err = %v, want ErrNoPoints", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("Fit: %v", err)
			}
			if km.K() != tc.wantK {
				t.Errorf("K = %d, want %d", km.K(), tc.wantK)
			}
			for _, p := range tc.points {
				if c := km.Assign(p); c < 0 || c >= km.K() {
					t.Errorf("Assign(%v) = %d out of range [0,%d)", p, c, km.K())
				}
			}
		})
	}
}

// TestDuplicatePointsDistinctCentroids pins the seedPlusPlus fix: when
// the input holds fewer distinct points than k, Fit returns fewer,
// pairwise-distinct centroids instead of duplicating one.
func TestDuplicatePointsDistinctCentroids(t *testing.T) {
	var points [][]float64
	for i := 0; i < 5; i++ {
		points = append(points, []float64{1, 2})
		points = append(points, []float64{3, 4})
	}
	for _, k := range []int{2, 3, 4, 20} {
		km := mustFit(t, points, k, 10, rng.New(11))
		if km.K() > 2 {
			t.Fatalf("k=%d: K = %d, want <= 2 (only 2 distinct points)", k, km.K())
		}
		for i := 0; i < km.K(); i++ {
			for j := i + 1; j < km.K(); j++ {
				if samePoint(km.Centroids[i], km.Centroids[j]) {
					t.Errorf("k=%d: centroids %d and %d are duplicates: %v", k, i, j, km.Centroids[i])
				}
			}
		}
		// Assign must stay within the reduced k.
		for _, p := range points {
			if c := km.Assign(p); c < 0 || c >= km.K() {
				t.Errorf("k=%d: Assign(%v) = %d out of range [0,%d)", k, p, c, km.K())
			}
		}
	}
}

// TestAllIdenticalPoints is the fully degenerate duplicate case: one
// distinct point, any k.
func TestAllIdenticalPoints(t *testing.T) {
	points := [][]float64{{7, 7}, {7, 7}, {7, 7}, {7, 7}}
	km := mustFit(t, points, 3, 10, rng.New(12))
	if km.K() != 1 {
		t.Errorf("K = %d, want 1", km.K())
	}
	if km.Inertia(points) != 0 {
		t.Errorf("inertia = %v, want 0", km.Inertia(points))
	}
}

// TestAssignDimMismatchPanics pins the sqDist mislabeling fix: a point
// from a different feature space must fail loudly, never silently map to
// a centroid (cache keys must not alias across feature spaces), in Assign
// and in Inertia alike.
func TestAssignDimMismatchPanics(t *testing.T) {
	km := mustFit(t, [][]float64{{0, 0}, {10, 10}}, 2, 10, rng.New(13))
	for name, p := range map[string][]float64{
		"short": {1},
		"long":  {1, 2, 3},
		"empty": {},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Assign(%s dim) did not panic", name)
				}
			}()
			km.Assign(p)
		}()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Inertia(%s dim) did not panic", name)
				}
			}()
			km.Inertia([][]float64{{5, 5}, p})
		}()
	}
}

// TestSlackCoversRounding checks the claim lloyd's bounds rest on: for any
// two vectors in the points' box, the square root of sqDist is within a
// quarter of slack of the exact Euclidean distance, worked out in 4096-bit
// arithmetic. It runs over every fuzz shape, the 2^±60 scales
// included, and over point-to-mean pairs, since centroids are means.
func TestSlackCoversRounding(t *testing.T) {
	exact := func(a, b []float64) *big.Float {
		sum := new(big.Float).SetPrec(4096)
		for i := range a {
			d := new(big.Float).SetPrec(4096).Sub(big.NewFloat(a[i]), big.NewFloat(b[i]))
			sum.Add(sum, d.Mul(d, d))
		}
		return sum.Sqrt(sum)
	}
	for mode := uint8(0); mode < 5; mode++ {
		for seed := uint64(0); seed < 6; seed++ {
			src := rng.New(seed)
			points := fuzzPoints(src, 60, 1+int(seed*3)%17, mode)
			mean := make([]float64, len(points[0]))
			for _, p := range points {
				for d, v := range p {
					mean[d] += v
				}
			}
			for d := range mean {
				mean[d] *= 1 / float64(len(points))
			}
			quarter := slack(points) / 4
			for i, p := range points {
				for _, q := range [][]float64{points[(i+1)%len(points)], mean} {
					got := big.NewFloat(math.Sqrt(sqDist(p, q)))
					err, _ := got.Sub(got, exact(p, q)).Abs(got).Float64()
					if !(err <= quarter) {
						t.Fatalf("mode %d seed %d: sqrt(sqDist) off by %g, a quarter of slack is %g", mode, seed, err, quarter)
					}
				}
			}
		}
	}
}
