package main

import (
	"reflect"
	"sync"
	"testing"
	"time"
)

var (
	quickOnce sync.Once
	quickDep  *deployment
)

// quickDeployment fits the small pipeline once for every test that needs
// real samples; the features keyer rides along.
func quickDeployment() *deployment {
	quickOnce.Do(func() { quickDep, _ = buildDeployment(true, true) })
	return quickDep
}

func TestSameSeedSameArrivalsDifferentSeedDifferentArrivals(t *testing.T) {
	d := quickDeployment()
	const from, span = 400 * time.Millisecond, 2400 * time.Millisecond
	for _, w := range workloads {
		if w.http {
			a, b, c := shuffledOrder(7, d.poolSize()), shuffledOrder(7, d.poolSize()), shuffledOrder(8, d.poolSize())
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s: one seed gave two sample orders", w.name)
			}
			if reflect.DeepEqual(a, c) {
				t.Errorf("%s: two seeds gave one sample order", w.name)
			}
			continue
		}
		a, b, c := w.matchedArrivals(d, 7, from, span), w.matchedArrivals(d, 7, from, span), w.matchedArrivals(d, 8, from, span)
		if len(a) == 0 {
			t.Fatalf("%s: no arrivals", w.name)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: one seed gave two traces", w.name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: two seeds gave one trace", w.name)
		}
		for i, x := range a {
			if x.at < 0 || x.at >= span || (i > 0 && x.at < a[i-1].at) {
				t.Fatalf("%s: arrival %d at %v is out of order or outside [0, %v)", w.name, i, x.at, span)
			}
			if x.sample < 0 || x.sample >= d.poolSize() || x.deadline <= 0 {
				t.Fatalf("%s: arrival %d is malformed: %+v", w.name, i, x)
			}
		}
	}
}

// Every seed must offer the same load: the measured part of a trace holds
// the process's mean count to within the tolerance.
func TestMatchedArrivalsHoldTheMeanLoad(t *testing.T) {
	d := quickDeployment()
	const from, span = 2 * time.Second, 12 * time.Second
	for _, w := range workloads {
		if w.http {
			continue
		}
		want := w.expect(time.Duration(float64(from)/runScale), time.Duration(float64(span)/runScale))
		for seed := uint64(1); seed <= 5; seed++ {
			n := 0
			for _, a := range w.matchedArrivals(d, seed, from, span) {
				if a.at >= from {
					n++
				}
			}
			if gap := (float64(n) - want) / want; gap > loadTolerance || gap < -loadTolerance {
				t.Errorf("%s seed %d: %d measured arrivals, mean %.1f (off by %.2f%%)", w.name, seed, n, want, gap*100)
			}
		}
	}
}

// The flash crowd's measured part is all plateau; check the expectation
// against the generator itself.
func TestFlashCrowdExpectationMatchesGenerator(t *testing.T) {
	d := quickDeployment()
	w := findWorkload("features-flash")
	const from, horizon = 20 * time.Second, 120 * time.Second
	total, quiet := 0.0, 0.0
	const seeds = 20
	for seed := uint64(0); seed < seeds; seed++ {
		for _, a := range w.arrivals(d, seed, from, horizon) {
			switch at := time.Duration(float64(a.at) / runScale); {
			case at >= from:
				total++
			case at < from/4:
				quiet++
			}
		}
	}
	got, want := total/seeds, w.expect(from, horizon)
	if gap := (got - want) / want; gap > 0.02 || gap < -0.02 {
		t.Errorf("flash crowd plateau: %.0f arrivals on average, expectation %.0f", got, want)
	}
	if got, want := quiet/seeds, flashBackground*(from/4).Seconds(); got > want*1.2 || got < want*0.8 {
		t.Errorf("flash crowd lead-in: %.0f arrivals on average, want the background's %.0f", got, want)
	}
}
