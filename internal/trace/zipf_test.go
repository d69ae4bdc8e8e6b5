package trace

import (
	"testing"
	"time"
)

func TestZipfianBasics(t *testing.T) {
	tr := Zipfian(ZipfianConfig{
		RatePerSec: 50, N: 5000, Samples: pool(200),
		Deadline: ConstantDeadline(100 * time.Millisecond), Seed: 3,
	})
	if tr.N() != 5000 {
		t.Fatalf("N = %d", tr.N())
	}
	counts := map[int]int{}
	var prev time.Duration
	for _, a := range tr.Arrivals {
		if a.At < prev {
			t.Fatal("arrivals not sorted")
		}
		if a.SampleIdx < 0 || a.SampleIdx >= 200 {
			t.Fatalf("sample idx %d", a.SampleIdx)
		}
		if a.Deadline != a.At+100*time.Millisecond {
			t.Fatal("constant deadline wrong")
		}
		counts[a.SampleIdx]++
		prev = a.At
	}
	// Zipf skew: the most popular sample must dominate the median one and
	// the head must cover a large share of traffic.
	max, distinct, headShare := 0, 0, 0
	for _, c := range counts {
		distinct++
		if c > max {
			max = c
		}
	}
	for _, c := range counts {
		if c >= max/4 {
			headShare += c
		}
	}
	if max < tr.N()/50 {
		t.Errorf("top sample only %d/%d arrivals; not Zipf-skewed", max, tr.N())
	}
	if distinct < 20 {
		t.Errorf("only %d distinct samples; tail missing", distinct)
	}
}

func TestZipfianDeterminism(t *testing.T) {
	cfg := ZipfianConfig{RatePerSec: 20, N: 500, Samples: pool(64),
		Deadline: ConstantDeadline(time.Second), Seed: 9}
	a, b := Zipfian(cfg), Zipfian(cfg)
	if a.N() != b.N() {
		t.Fatal("lengths differ")
	}
	for i := range a.Arrivals {
		if a.Arrivals[i] != b.Arrivals[i] {
			t.Fatalf("arrival %d differs", i)
		}
	}
}
