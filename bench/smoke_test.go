package main

import (
	"os"
	"testing"
)

// TestBenchSmoke keeps the harness runnable under tier-1: every workload,
// untraced and traced, on the small pipeline fit with sub-second windows.
// It asserts only what must hold on any machine — every output and
// accounting check passes and every metric is present — never a timing.
func TestBenchSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the server binary and runs live traffic")
	}
	for _, w := range workloads {
		spec := runSpec{w: w, seed: 7, seconds: 0.6, quick: true}
		res, err := runUntraced(spec)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		checkSmoke(t, w.name+" untraced", res, endToEnd)
		for _, name := range []string{"setup_s", "rss_peak_mb"} {
			if res.metrics[name] <= 0 {
				t.Errorf("%s: %s = %g, want > 0", w.name, name, res.metrics[name])
			}
		}

		path := t.TempDir() + "/trace.jsonl"
		res, err = runTraced(spec, path)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		checkSmoke(t, w.name+" traced", res, perLayer)
		if res.metrics["trace.spans"] <= 0 {
			t.Errorf("%s: the traced run recorded no spans", w.name)
		}
		if st, err := os.Stat(path); err != nil || st.Size() == 0 {
			t.Errorf("%s: no span trace was written: %v", w.name, err)
		}
	}
}

func checkSmoke(t *testing.T, what string, res runResult, defs []metricDef) {
	t.Helper()
	if res.tally.sent == 0 {
		t.Errorf("%s: nothing was sent", what)
	}
	if res.tally.failed != 0 {
		t.Errorf("%s: %d failed checks: %v", what, res.tally.failed, res.tally.problems)
	}
	for _, d := range defs {
		if _, ok := res.metrics[d.name]; !ok {
			t.Errorf("%s: metric %s missing", what, d.name)
		}
	}
}
