package cluster

import (
	"fmt"
	"math"
	"testing"

	"schemble/internal/dataset"
	"schemble/internal/rng"
)

// The ref* functions below are Fit, seedPlusPlus and nearest as they stood
// before the bounded rewrite, kept verbatim (calls go to the ref* twin and
// the float-equality lint annotations, which test files do not take, are
// gone; nothing else) as the identity reference: seeding rescans every chosen
// centroid for every point in every round, and every Lloyd iteration
// measures every point against every centroid with sqDist. Production Fit
// must reproduce their every bit and leave src where they leave it.

func refFit(points [][]float64, k, maxIter int, src *rng.Source) (*KMeans, error) {
	if len(points) == 0 {
		return nil, ErrNoPoints
	}
	dim := len(points[0])
	for i, p := range points {
		if len(p) != dim {
			return nil, fmt.Errorf("cluster: point %d has dim %d, want %d", i, len(p), dim)
		}
	}
	if k < 1 {
		k = 1
	}
	if k > len(points) {
		k = len(points)
	}
	if maxIter <= 0 {
		maxIter = 20
	}
	if k == len(points) {
		// Every distinct point becomes its own centroid; duplicates
		// collapse so no two centroids alias the same cache key.
		km := &KMeans{}
		for _, p := range points {
			dup := false
			for _, c := range km.Centroids {
				if refSamePoint(c, p) {
					dup = true
					break
				}
			}
			if !dup {
				km.Centroids = append(km.Centroids, append([]float64(nil), p...))
			}
		}
		return km, nil
	}
	centroids := refSeedPlusPlus(points, k, src)
	assign := make([]int, len(points))
	counts := make([]int, len(centroids))
	for iter := 0; iter < maxIter; iter++ {
		changed := false
		for i, p := range points {
			c := refNearest(centroids, p)
			if assign[i] != c {
				assign[i] = c
				changed = true
			}
		}
		if !changed && iter > 0 {
			break
		}
		for c := range centroids {
			counts[c] = 0
			for d := range centroids[c] {
				centroids[c][d] = 0
			}
		}
		for i, p := range points {
			c := assign[i]
			counts[c]++
			for d := 0; d < dim; d++ {
				centroids[c][d] += p[d]
			}
		}
		for c := range centroids {
			if counts[c] == 0 {
				// Re-seed an empty cluster at a random point.
				copy(centroids[c], points[src.Intn(len(points))])
				continue
			}
			inv := 1 / float64(counts[c])
			for d := range centroids[c] {
				centroids[c][d] *= inv
			}
		}
	}
	return &KMeans{Centroids: centroids}, nil
}

func refSeedPlusPlus(points [][]float64, k int, src *rng.Source) [][]float64 {
	centroids := make([][]float64, 0, k)
	first := points[src.Intn(len(points))]
	centroids = append(centroids, append([]float64(nil), first...))
	d2 := make([]float64, len(points))
	for len(centroids) < k {
		var total float64
		for i, p := range points {
			d := refSqDist(p, centroids[refNearest(centroids, p)])
			d2[i] = d
			total += d
		}
		if total == 0 {
			break
		}
		r := src.Float64() * total
		pick := -1
		var cum float64
		for i, d := range d2 {
			if d <= 0 {
				// Zero-distance points duplicate an existing centroid;
				// they carry no weight and must never be picked (r may be
				// exactly 0).
				continue
			}
			cum += d
			if cum >= r {
				pick = i
				break
			}
		}
		if pick < 0 {
			// Float round-off left cum just under r: take the farthest point.
			best := 0.0
			for i, d := range d2 {
				if d > best {
					best, pick = d, i
				}
			}
		}
		centroids = append(centroids, append([]float64(nil), points[pick]...))
	}
	return centroids
}

func refSamePoint(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func refSqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

func refNearest(centroids [][]float64, p []float64) int {
	best, bestD := 0, math.Inf(1)
	for c, cent := range centroids {
		if d := refSqDist(p, cent); d < bestD {
			best, bestD = c, d
		}
	}
	return best
}

// deploymentFeatures returns the feature vectors of the default
// deployment's training and serving splits (text matching, N 4000, seed 7,
// the pipeline's 0.5/0.1 split): the inputs of the DES baseline's fit and of
// the result cache keyer's.
func deploymentFeatures() (train, serve [][]float64) {
	tr, _, sv := dataset.TextMatching(dataset.Config{N: 4000, Seed: 7}).Split(0.5, 0.1, 7)
	features := func(samples []*dataset.Sample) [][]float64 {
		points := make([][]float64, len(samples))
		for i, s := range samples {
			points[i] = s.Features
		}
		return points
	}
	return features(tr), features(sv)
}

// gridPoints draws n points on the integer grid {0..side-1}^dim, where equal
// distances — and so nearest-centroid ties — are common.
func gridPoints(src *rng.Source, n, dim, side int) [][]float64 {
	points := make([][]float64, n)
	for i := range points {
		p := make([]float64, dim)
		for d := range p {
			p[d] = float64(src.Intn(side))
		}
		points[i] = p
	}
	return points
}

// duplicatePoints draws n points from `distinct` locations.
func duplicatePoints(src *rng.Source, n, dim, distinct int) [][]float64 {
	base := make([][]float64, distinct)
	for i := range base {
		base[i] = make([]float64, dim)
		for d := range base[i] {
			base[i][d] = src.Normal(0, 3)
		}
	}
	points := make([][]float64, n)
	for i := range points {
		points[i] = append([]float64(nil), base[src.Intn(distinct)]...)
	}
	return points
}

// clonePoints deep-copies points, so a fit that wrote into its input could
// not hide behind the reference seeing the same corruption.
func clonePoints(points [][]float64) [][]float64 {
	out := make([][]float64, len(points))
	for i, p := range points {
		out[i] = append([]float64(nil), p...)
	}
	return out
}

// sameBits reports bitwise equality, with any NaN equal to any other: when
// both operands of an add are NaN, which payload the sum carries is the
// compiler's choice of operand order, not the program's.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// sameFit fails t unless Fit and refFit, each from its own source seeded
// with seed, return bitwise-equal centroids (or equal errors), Inertia over
// points equals the reference's Assign-then-sqDist sum bitwise, and both
// sources are left at the same next draw.
func sameFit(t testing.TB, tag string, points [][]float64, k, maxIter int, seed uint64) {
	t.Helper()
	gotSrc, wantSrc := rng.New(seed), rng.New(seed)
	got, gotErr := Fit(clonePoints(points), k, maxIter, gotSrc)
	want, wantErr := refFit(clonePoints(points), k, maxIter, wantSrc)
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("%s: err = %v, reference err = %v", tag, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if got.K() != want.K() {
		t.Fatalf("%s: %d centroids, reference %d", tag, got.K(), want.K())
	}
	for c := range want.Centroids {
		if len(got.Centroids[c]) != len(want.Centroids[c]) {
			t.Fatalf("%s: centroid %d has dim %d, reference %d", tag, c, len(got.Centroids[c]), len(want.Centroids[c]))
		}
		for d, w := range want.Centroids[c] {
			if g := got.Centroids[c][d]; !sameBits(g, w) {
				t.Fatalf("%s: centroid %d[%d] = %v (%#x), reference %v (%#x)",
					tag, c, d, g, math.Float64bits(g), w, math.Float64bits(w))
			}
		}
	}
	var wantInertia float64
	for _, p := range points {
		wantInertia += refSqDist(p, want.Centroids[refNearest(want.Centroids, p)])
	}
	if g := got.Inertia(points); !sameBits(g, wantInertia) {
		t.Fatalf("%s: Inertia = %v (%#x), reference %v (%#x)", tag, g, math.Float64bits(g), wantInertia, math.Float64bits(wantInertia))
	}
	if g, w := gotSrc.Uint64(), wantSrc.Uint64(); g != w {
		t.Fatalf("%s: next draw after Fit %#x, after reference %#x", tag, g, w)
	}
}

// TestFitMatchesReference pins the bounded Fit to the reference bit for bit
// on the inputs its callers give it and on the ones that stress its bounds:
// the cache keyer's serving pool, a DES-shaped fit, separated blobs where
// most points never rescan, duplicate-heavy input where seeding stops early
// and clusters empty, an integer grid where ties are everywhere, the ends
// of k's range, one- and two-iteration fits, and non-finite or huge
// coordinates that turn the bounds off.
func TestFitMatchesReference(t *testing.T) {
	train, pool := deploymentFeatures()
	if len(pool) != 1600 || len(pool[0]) != 12 {
		t.Fatalf("serve pool is %dx%d, want 1600x12", len(pool), len(pool[0]))
	}
	blobPoints, _ := blobs(rng.New(21), [][]float64{{0, 0, 0}, {9, 0, 1}, {0, 9, -1}, {5, 5, 5}}, 120, 0.7)
	small := gridPoints(rng.New(22), 40, 3, 4)
	nonFinite := clonePoints(blobPoints[:60])
	nonFinite[7][1] = math.NaN()
	nonFinite[31][0] = math.Inf(1)
	huge := clonePoints(blobPoints[:90])
	for _, p := range huge {
		for d := range p {
			p[d] *= 1e150
		}
	}
	tiny := clonePoints(blobPoints[:90])
	for _, p := range tiny {
		for d := range p {
			p[d] *= 1e-170
		}
	}
	cases := []struct {
		name    string
		points  [][]float64
		k       int
		maxIter int
		seed    uint64
	}{
		{"cache keyer", pool, 64, 30, 7 ^ 0xcac4e},
		{"cache keyer seed 11", pool, 64, 30, 11 ^ 0xcac4e},
		{"des regions", train, 8, 30, 7 ^ 0xde5},
		{"blobs", blobPoints, 4, 50, 23},
		{"blobs overfit", blobPoints, 40, 50, 24},
		{"duplicates", duplicatePoints(rng.New(25), 300, 4, 9), 16, 30, 26},
		{"duplicates two", duplicatePoints(rng.New(27), 50, 2, 2), 5, 30, 28},
		{"grid", gridPoints(rng.New(29), 500, 2, 5), 12, 30, 30},
		{"grid wide", gridPoints(rng.New(31), 400, 6, 3), 32, 40, 32},
		{"k 1", pool[:300], 1, 30, 33},
		{"k n-1", small, len(small) - 1, 30, 34},
		{"k n", small, len(small), 30, 35},
		{"maxIter 1", pool, 64, 1, 36},
		{"maxIter 2", pool, 64, 2, 37},
		{"maxIter default", pool[:500], 10, 0, 38},
		{"non-finite", nonFinite, 6, 30, 39},
		{"huge", huge, 6, 30, 40},
		{"tiny", tiny, 6, 30, 41},
	}
	for _, tc := range cases {
		sameFit(t, tc.name, tc.points, tc.k, tc.maxIter, tc.seed)
	}
}

// benchFit is the cache keyer's fit: the serving pool, k 64, at most 30
// iterations, the keyer's seed.
func benchFit(b *testing.B, fit func([][]float64, int, int, *rng.Source) (*KMeans, error)) {
	_, pool := deploymentFeatures()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fit(pool, 64, 30, rng.New(7^0xcac4e)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFit(b *testing.B)          { benchFit(b, Fit) }
func BenchmarkFitReference(b *testing.B) { benchFit(b, refFit) }

// assignSink keeps BenchmarkAssign's calls live.
var assignSink int

// BenchmarkAssign keys the serving pool on the cache keyer's 64 centroids,
// one Assign per op.
func BenchmarkAssign(b *testing.B) {
	_, pool := deploymentFeatures()
	km, err := Fit(pool, 64, 30, rng.New(7^0xcac4e))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		assignSink += km.Assign(pool[i%len(pool)])
	}
}
