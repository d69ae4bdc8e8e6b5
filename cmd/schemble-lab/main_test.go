package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestLabTwoSeedsPerShape runs every shape for two seeds: each prints one
// line per seed with its figures in range, the flash shape reports its three
// classes, and a second run of a shape prints the same bytes, since
// scripts/lab_pairs.sh reads any difference between two trees as a
// difference in their decisions.
func TestLabTwoSeedsPerShape(t *testing.T) {
	for _, shape := range []string{"burst", "flash", "steady"} {
		t.Run(shape, func(t *testing.T) {
			var outs [2]bytes.Buffer
			for i := range outs {
				if err := run(&outs[i], shape, 9001, 2); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(outs[0].Bytes(), outs[1].Bytes()) {
				t.Fatalf("two runs of one seed range differ:\n%s\n%s", outs[0].String(), outs[1].String())
			}
			lines := strings.Split(strings.TrimSpace(outs[0].String()), "\n")
			if len(lines) != 2 {
				t.Fatalf("%d lines, want 2:\n%s", len(lines), outs[0].String())
			}
			for i, raw := range lines {
				var l line
				if err := json.Unmarshal([]byte(raw), &l); err != nil {
					t.Fatalf("line %d: %v", i, err)
				}
				if l.Shape != shape || l.Seed != 9001+uint64(i) || l.Arrivals == 0 {
					t.Fatalf("line %d: shape %q seed %d arrivals %d", i, l.Shape, l.Seed, l.Arrivals)
				}
				want := []string{"ontime_share", "accuracy", "p50_ms", "p95_ms", "noncached_p95_ms", "early_dropped", "part_commits"}
				if shape == "flash" {
					want = append(want, "gold_p95_ms", "silver_p95_ms", "bronze_p95_ms", "bronze_subset_mean")
				}
				for _, name := range want {
					if _, ok := l.Metrics[name]; !ok {
						t.Fatalf("line %d lacks %s: %s", i, name, raw)
					}
				}
				for _, name := range []string{"ontime_share", "accuracy"} {
					if v := l.Metrics[name].Value; v <= 0.5 || v > 1 {
						t.Fatalf("line %d: %s = %v, want in (0.5, 1]", i, name, v)
					}
				}
				if p50, p95 := l.Metrics["p50_ms"].Value, l.Metrics["p95_ms"].Value; p50 <= 0 || p95 < p50 {
					t.Fatalf("line %d: p50 %v ms, p95 %v ms", i, p50, p95)
				}
			}
		})
	}
}

func TestLabUnknownShape(t *testing.T) {
	if err := run(new(bytes.Buffer), "flood", 1, 1); err == nil {
		t.Fatal("an unknown shape ran")
	}
}
