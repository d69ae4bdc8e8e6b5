package cluster

import (
	"math"
	"testing"

	"schemble/internal/rng"
)

// fuzzPoints draws n points of dimension dim from src in one of five
// shapes: Gaussian clouds, a few locations repeated (seeding stops early,
// clusters empty and reseed), a small integer grid (exact distance ties),
// that grid jittered by 2^-52..2^-37 (near-ties on both sides of the
// rounding slack), and Gaussian clouds scaled by 2^±60 (the slack's scale
// and underflow).
func fuzzPoints(src *rng.Source, n, dim int, mode uint8) [][]float64 {
	switch mode % 5 {
	case 1:
		return duplicatePoints(src, n, dim, 1+src.Intn(6))
	case 2:
		return gridPoints(src, n, dim, 2+src.Intn(4))
	case 3:
		points := gridPoints(src, n, dim, 2+src.Intn(3))
		ulp := math.Ldexp(1, -52+src.Intn(16))
		for _, p := range points {
			for d := range p {
				p[d] += float64(src.Intn(5)-2) * ulp
			}
		}
		return points
	}
	centers := make([][]float64, 1+src.Intn(8))
	for i := range centers {
		centers[i] = make([]float64, dim)
		for d := range centers[i] {
			centers[i][d] = src.Normal(0, 5)
		}
	}
	scale := 1.0
	if mode%5 == 4 {
		scale = math.Ldexp(1, 120*src.Intn(2)-60)
	}
	points := make([][]float64, n)
	for i := range points {
		c := centers[src.Intn(len(centers))]
		p := make([]float64, dim)
		for d := range p {
			p[d] = src.Normal(c[d], 1) * scale
		}
		points[i] = p
	}
	return points
}

// FuzzFit compares Fit with the reference bit for bit over fuzzer-chosen
// sizes, k, iteration caps, seeds and point shapes: the centroids must be
// bitwise equal and the source must be left at the same next draw.
func FuzzFit(f *testing.F) {
	f.Add(uint16(300), uint8(12), uint8(32), uint8(30), uint64(1), uint8(0))
	f.Add(uint16(200), uint8(3), uint8(20), uint8(30), uint64(2), uint8(1))
	f.Add(uint16(250), uint8(2), uint8(16), uint8(30), uint64(3), uint8(2))
	f.Add(uint16(250), uint8(4), uint8(24), uint8(30), uint64(4), uint8(3))
	f.Add(uint16(150), uint8(6), uint8(10), uint8(30), uint64(5), uint8(4))
	f.Fuzz(func(t *testing.T, nRaw uint16, dimRaw, kRaw, iterRaw uint8, seed uint64, mode uint8) {
		n := 1 + int(nRaw%400)
		dim := int(dimRaw % 17)
		k := int(kRaw) % (n + 2)
		maxIter := int(iterRaw % 41)
		points := fuzzPoints(rng.New(seed), n, dim, mode)
		sameFit(t, "fuzz", points, k, maxIter, seed^0x5eed)
	})
}
