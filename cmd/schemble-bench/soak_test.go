package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// TestSoakIsOneRun replays each soak twice at seed 7: the runtime runs on a
// virtual clock, so the two reports must be byte for byte the same on any
// host and at any GOMAXPROCS.
func TestSoakIsOneRun(t *testing.T) {
	soaks := []struct {
		name string
		run  func(options) (any, error)
	}{
		{"overload", func(o options) (any, error) { return runOverload(o) }},
		{"cache", func(o options) (any, error) { return runCache(o) }},
		{"drift", func(o options) (any, error) { return runDrift(o) }},
	}
	for _, s := range soaks {
		t.Run(s.name, func(t *testing.T) {
			var reports [2][]byte
			for i := range reports {
				rep, err := s.run(options{seed: 7})
				if err != nil {
					t.Fatal(err)
				}
				if reports[i], err = json.Marshal(rep); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(reports[0], reports[1]) {
				t.Fatalf("two replays of one seed differ:\n%s\n%s", reports[0], reports[1])
			}
		})
	}
}

func TestDriftRamp(t *testing.T) {
	m := rampModel{start: 10 * time.Second, end: 20 * time.Second}
	mid := (1 + driftFactor) / 2
	for _, c := range []struct {
		at   time.Duration
		want float64
	}{
		{5 * time.Second, 1},
		{10 * time.Second, 1},
		{15 * time.Second, mid},
		{20 * time.Second, driftFactor},
		{25 * time.Second, driftFactor},
	} {
		if got := m.multiplier(c.at); got != c.want {
			t.Errorf("ramp at %v = %v, want %v", c.at, got, c.want)
		}
	}
}
