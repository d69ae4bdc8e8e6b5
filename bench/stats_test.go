package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{0.5, 50}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
}

// The highest percentile reported is the highest with at least ten samples
// beyond it.
func TestSupportedTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{15, 0.5},   // p90 of 15 leaves 1 beyond
		{99, 0.5},   // p90 of 99 leaves 9 beyond
		{100, 0.9},  // exactly 10 beyond p90
		{199, 0.9},  // p95 of 199 leaves 9 beyond
		{200, 0.95}, // exactly 10 beyond p95
		{999, 0.95}, // p99 of 999 leaves 9 beyond
		{1000, 0.99},
		{9999, 0.99},
		{10000, 0.999},
	} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	if got := beyond(1000, 0.99); got != 10 {
		t.Errorf("beyond(1000, p99) = %d, want 10", got)
	}
}

func TestRelDiff(t *testing.T) {
	if got := relDiff([]float64{90, 110}); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("relDiff(90, 110) = %g, want 0.2", got)
	}
	if got := relDiff([]float64{5, 5, 5}); got != 0 {
		t.Errorf("relDiff of equal values = %g, want 0", got)
	}
}
