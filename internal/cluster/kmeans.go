// Package cluster provides k-means clustering with k-means++ seeding. The
// DES baseline (dynamic ensemble selection) uses it to partition the input
// space into competence regions, and internal/rcache keys its result cache
// on centroid assignments — which is why Fit must never emit duplicate
// centroids and Assign must never silently mislabel a point from a
// different feature space.
package cluster

import (
	"errors"
	"fmt"
	"math"

	"schemble/internal/rng"
)

// ErrNoPoints is returned by Fit when the input is empty: there is nothing
// to seed a centroid from.
var ErrNoPoints = errors.New("cluster: no points")

// KMeans holds fitted cluster centroids.
type KMeans struct {
	Centroids [][]float64
}

// Fit runs k-means with k-means++ initialization on points, for at most
// maxIter Lloyd iterations (20 if maxIter <= 0). k is clamped to
// [1, len(points)]; an empty input returns ErrNoPoints and a
// dimension-mismatched point returns an error naming the offender. The
// fitted model may hold fewer than k centroids when the input has fewer
// than k distinct points — centroids are always pairwise distinct, so
// K() and Assign stay consistent with the reduced count.
func Fit(points [][]float64, k, maxIter int, src *rng.Source) (*KMeans, error) {
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
				if samePoint(c, p) {
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
	centroids := seedPlusPlus(points, k, src)
	lloyd(points, centroids, maxIter, src)
	return &KMeans{Centroids: centroids}, nil
}

// lloyd runs at most maxIter Lloyd iterations on centroids in place,
// stopping at the first iteration after the first that moves no point.
//
// It follows Hamerly ("Making k-means even faster", SDM 2010): each point
// keeps an upper bound on its Euclidean distance to its own centroid and a
// lower bound on its distance to every other, and an iteration widens them
// by how far the centroids moved. A point whose upper bound sits below its
// lower bound by more than the rounding slack keeps its centroid without a
// distance computation; every other point is measured against every
// centroid with scan. The slack is absolute, so it covers the rounding of
// sqDist and of the bounds' own arithmetic even where lower minus drift
// cancels; a point it lets through has a computed distance to its centroid
// strictly below every other, which is exactly when a rescan would keep it.
// So every iteration moves the same points as a full rescan, ties included,
// and the centroid sums and the empty-cluster draws are a full rescan's.
func lloyd(points, centroids [][]float64, maxIter int, src *rng.Source) {
	n, k, dim := len(points), len(centroids), len(points[0])
	assign := make([]int, n)
	upper := make([]float64, n)
	lower := make([]float64, n)
	counts := make([]int, k)
	prev := make([]float64, k*dim)
	drift := make([]float64, k)
	var maxDrift float64
	tol := slack(points)
	for iter := 0; iter < maxIter; iter++ {
		changed := false
		for i, p := range points {
			a := assign[i]
			if iter > 0 {
				upper[i] += drift[a]
				lower[i] -= maxDrift
				if upper[i]+tol < lower[i] {
					continue
				}
			}
			c, d1, d2 := scan(centroids, p)
			upper[i] = math.Sqrt(d1) + tol
			lower[i] = math.Sqrt(d2) - tol
			if a != c {
				assign[i] = c
				changed = true
			}
		}
		if !changed && iter > 0 {
			break
		}
		for c := range centroids {
			copy(prev[c*dim:], centroids[c])
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
		maxDrift = 0
		for c := range centroids {
			if counts[c] == 0 {
				// Re-seed an empty cluster at a random point.
				copy(centroids[c], points[src.Intn(len(points))])
			} else {
				inv := 1 / float64(counts[c])
				for d := range centroids[c] {
					centroids[c][d] *= inv
				}
			}
			drift[c] = math.Sqrt(sqDist(prev[c*dim:(c+1)*dim], centroids[c])) + tol
			if drift[c] > maxDrift {
				maxDrift = drift[c]
			}
		}
	}
}

// slack returns the absolute allowance lloyd's bounds carry for rounding:
// at least four times the most that a distance taken as the square root of
// sqDist can be off from the exact distance between the same float
// vectors. Every point and centroid lies in the box of the points' largest
// coordinate magnitude s, so no exact distance exceeds 2·s·√dim (r doubles
// that, for means that round past the box); sqDist is off by at most a
// relative (dim+2)·2⁻⁵³ of the squared distance plus dim·2⁻¹⁰⁷⁴ of
// underflow, and the square root by one more rounding. Coordinates that
// are not finite or beyond ±1e60, whose squares may overflow, get +Inf,
// which no bound passes: every point is rescanned every iteration.
func slack(points [][]float64) float64 {
	var s float64
	for _, p := range points {
		for _, v := range p {
			a := math.Abs(v)
			if !(a <= 1e60) {
				return math.Inf(1)
			}
			if a > s {
				s = a
			}
		}
	}
	dim := float64(len(points[0]))
	r := 4 * s * math.Sqrt(dim)
	return r*(dim+16)*0x1p-50 + math.Sqrt(dim)*0x1p-500
}

// seedPlusPlus picks up to k initial centroids with D^2 weighting. When
// every remaining point coincides with an existing centroid it stops
// early and returns fewer, pairwise-distinct centroids rather than
// re-picking an already-chosen point.
func seedPlusPlus(points [][]float64, k int, src *rng.Source) [][]float64 {
	centroids := make([][]float64, 0, k)
	first := points[src.Intn(len(points))]
	centroids = append(centroids, append([]float64(nil), first...))
	// d2[i] is point i's squared distance to its nearest chosen centroid,
	// kept by folding in each new centroid rather than rescanning them all:
	// the minimum is the same value, so total and every pick are too.
	d2 := make([]float64, len(points))
	for len(centroids) < k {
		newest := centroids[len(centroids)-1]
		var total float64
		for i, p := range points {
			if d := sqDist(p, newest); len(centroids) == 1 || d < d2[i] {
				d2[i] = d
			}
			total += d2[i]
		}
		//schemble:floateq-ok total sums non-negative distances; it is exactly 0 only when every point coincides with a centroid
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

// samePoint reports exact coordinate equality.
func samePoint(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		//schemble:floateq-ok duplicate-centroid detection: only bitwise-equal points collapse into one centroid
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// sqDist4 returns sqDist(p, a), sqDist(p, b), sqDist(p, c) and
// sqDist(p, d) in one pass over p. Each distance has its own accumulator,
// summed in sqDist's order, so each is bitwise sqDist's; the four
// independent chains are what make the pass faster than four calls.
func sqDist4(p, a, b, c, d []float64) (sa, sb, sc, sd float64) {
	a, b, c, d = a[:len(p)], b[:len(p)], c[:len(p)], d[:len(p)]
	for i, v := range p {
		ea := v - a[i]
		sa += ea * ea
		eb := v - b[i]
		sb += eb * eb
		ec := v - c[i]
		sc += ec * ec
		ed := v - d[i]
		sd += ed * ed
	}
	return sa, sb, sc, sd
}

// nearestTwo folds squared distances, in centroid order, into the nearest
// centroid, its distance and the smallest distance to any other centroid.
type nearestTwo struct {
	best   int
	d1, d2 float64
}

func (t *nearestTwo) add(c int, d float64) {
	if d < t.d1 {
		t.best, t.d1, t.d2 = c, d, t.d1
	} else if d < t.d2 {
		t.d2 = d
	}
}

// scan returns the index of the centroid nearest p, the lowest index among
// equals, with sqDist(p, centroids[best]) and the smallest squared distance
// from p to any other centroid (+Inf when there is none). A distance is
// taken only when it is below the nearest so far, starting from +Inf, so a
// p with no finite distance to any centroid is centroid 0's.
func scan(centroids [][]float64, p []float64) (best int, d1, d2 float64) {
	t := nearestTwo{d1: math.Inf(1), d2: math.Inf(1)}
	c := 0
	for ; c+4 <= len(centroids); c += 4 {
		sa, sb, sc, sd := sqDist4(p, centroids[c], centroids[c+1], centroids[c+2], centroids[c+3])
		t.add(c, sa)
		t.add(c+1, sb)
		t.add(c+2, sc)
		t.add(c+3, sd)
	}
	for ; c < len(centroids); c++ {
		t.add(c, sqDist(p, centroids[c]))
	}
	if !(t.d1 < math.Inf(1)) {
		t.d1 = sqDist(p, centroids[0])
	}
	return t.best, t.d1, t.d2
}

// Assign returns the index of the centroid closest to p. It panics when
// p's dimensionality differs from the fitted space: sqDist ranges over
// the shorter vector, so a mismatched point would be silently mislabeled
// — and, used as a cache key, would alias across feature spaces.
func (km *KMeans) Assign(p []float64) int {
	c, _ := km.nearest(p)
	return c
}

// nearest returns Assign's centroid and p's squared distance to it.
func (km *KMeans) nearest(p []float64) (int, float64) {
	if len(p) != km.Dim() {
		panic(fmt.Sprintf("cluster: Assign called with dim %d, fitted dim is %d", len(p), km.Dim()))
	}
	c, d, _ := scan(km.Centroids, p)
	return c, d
}

// K returns the number of clusters.
func (km *KMeans) K() int { return len(km.Centroids) }

// Dim returns the dimensionality of the fitted feature space (0 for an
// empty model).
func (km *KMeans) Dim() int {
	if len(km.Centroids) == 0 {
		return 0
	}
	return len(km.Centroids[0])
}

// Inertia returns the total within-cluster squared distance of points.
func (km *KMeans) Inertia(points [][]float64) float64 {
	var s float64
	for _, p := range points {
		_, d := km.nearest(p)
		s += d
	}
	return s
}
