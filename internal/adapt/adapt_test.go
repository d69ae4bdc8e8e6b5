package adapt

import (
	"testing"
	"time"
)

func TestNewDisabledIsNil(t *testing.T) {
	if e := New(Config{}, []time.Duration{time.Millisecond}, []time.Duration{time.Millisecond}); e != nil {
		t.Fatalf("New with zero config = %v, want nil", e)
	}
	if (Config{}).Enabled() {
		t.Fatal("zero Config reports Enabled")
	}
}

func TestInflationColdThenTracks(t *testing.T) {
	profiled := []time.Duration{10 * time.Millisecond}
	e := New(Config{Enable: true}, profiled, profiled)
	if got := e.Inflation(0); got != 1 {
		t.Fatalf("cold inflation = %v, want exactly 1", got)
	}
	// Below minSamples the factor must stay pinned at 1 even though the
	// observations are far from profiled.
	now := time.Duration(0)
	for i := 0; i < minSamples-1; i++ {
		now += time.Millisecond
		e.ObserveLatency(now, 0, 30*time.Millisecond)
	}
	if got := e.Inflation(0); got != 1 {
		t.Fatalf("inflation below minSamples = %v, want exactly 1", got)
	}
	now += time.Millisecond
	e.ObserveLatency(now, 0, 30*time.Millisecond)
	got := e.Inflation(0)
	if got < 2.0 || got > 4.0 {
		t.Fatalf("inflation after %d 3x-profiled observations = %v, want near 3 (within one bucket)", minSamples, got)
	}
	// Out-of-range model indices degrade to the neutral factor.
	if e.Inflation(-1) != 1 || e.Inflation(5) != 1 {
		t.Fatal("out-of-range model index did not report inflation 1")
	}
}

func TestInflationClamped(t *testing.T) {
	profiled := []time.Duration{time.Millisecond}
	e := New(Config{Enable: true}, profiled, profiled)
	e2 := New(Config{Enable: true}, []time.Duration{time.Second}, []time.Duration{time.Second})
	for i := 1; i <= minSamples; i++ {
		e.ObserveLatency(time.Duration(i)*time.Millisecond, 0, 100*time.Millisecond)
		e2.ObserveLatency(time.Duration(i)*time.Millisecond, 0, time.Millisecond)
	}
	if got := e.Inflation(0); got != maxInflation {
		t.Fatalf("inflation = %v, want clamped to maxInflation %v", got, maxInflation)
	}
	if got := e2.Inflation(0); got != minInflation {
		t.Fatalf("inflation = %v, want clamped to minInflation %v", got, minInflation)
	}
}

func TestExecIntoScalesBase(t *testing.T) {
	profiled := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond}
	base := []time.Duration{11 * time.Millisecond, 22 * time.Millisecond}
	e := New(Config{Enable: true}, profiled, base)
	exec := make([]time.Duration, 2)
	e.ExecInto(exec)
	if exec[0] != base[0] || exec[1] != base[1] {
		t.Fatalf("cold ExecInto = %v, want base %v unchanged", exec, base)
	}
	now := time.Duration(0)
	for i := 0; i < minSamples; i++ {
		now += time.Millisecond
		e.ObserveLatency(now, 1, 60*time.Millisecond) // 3x profiled on model 1
	}
	e.ExecInto(exec)
	if exec[0] != base[0] {
		t.Fatalf("exec[0] = %v, want untouched base %v (model 0 never observed)", exec[0], base[0])
	}
	want := time.Duration(float64(base[1]) * e.Inflation(1))
	if exec[1] != want {
		t.Fatalf("exec[1] = %v, want base*inflation = %v", exec[1], want)
	}
	if exec[1] <= base[1] {
		t.Fatalf("exec[1] = %v did not inflate above base %v", exec[1], base[1])
	}
}

// TestPlansAgainstP95: of 100 observations, 92 at the profiled mean and 8 at
// 4x it put the 0.90 quantile (rank 90) in the mean's bucket and the 0.95
// quantile (rank 95) in the slow one's, so Inflation and ExecInto must read
// the 0.95 one.
func TestPlansAgainstP95(t *testing.T) {
	profiled := []time.Duration{10 * time.Millisecond}
	base := []time.Duration{11 * time.Millisecond}
	e := New(Config{Enable: true}, profiled, base)
	for i := 0; i < 100; i++ {
		lat := profiled[0]
		if i%25 >= 23 {
			lat = 4 * profiled[0]
		}
		e.ObserveLatency(time.Duration(i+1)*time.Millisecond, 0, lat)
	}
	p90, p95 := e.Quantile(0, 0.90), e.Quantile(0, 0.95)
	if p95 < 3*p90 {
		t.Fatalf("p90 %v, p95 %v: the samples should put them in buckets 4x apart", p90, p95)
	}
	want := float64(p95) / float64(profiled[0])
	if got := e.Inflation(0); got != want {
		t.Fatalf("Inflation = %v, want p95/profiled = %v (p90/profiled = %v)", got, want, float64(p90)/float64(profiled[0]))
	}
	exec := make([]time.Duration, 1)
	e.ExecInto(exec)
	if w := time.Duration(float64(base[0]) * want); exec[0] != w {
		t.Fatalf("ExecInto = %v, want base x p95 inflation = %v", exec[0], w)
	}
}

// windowStep spaces observations so that each detector window holds ten:
// a window closes at the observation a full driftWindow after its first.
const windowStep = driftWindow / 10

// feedWindows pushes enough spaced observations through model k to close
// cnt detector windows at the given latency.
func feedWindows(e *Engine, now *time.Duration, k int, lat time.Duration, cnt int) {
	for i := 0; i < 10*cnt; i++ {
		*now += windowStep
		e.ObserveLatency(*now, k, lat)
	}
}

func TestLatencyDriftEnterAndExit(t *testing.T) {
	profiled := []time.Duration{10 * time.Millisecond}
	e := New(Config{Enable: true}, profiled, profiled)
	now := time.Duration(0)
	feedWindows(e, &now, 0, 10*time.Millisecond, 4)
	if len(e.ActiveDrift()) != 0 {
		t.Fatal("drift active before any shift")
	}
	// Sustained 2x latency: driftPatience 2 means the first out-of-band window
	// must not flip, the second must.
	feedWindows(e, &now, 0, 20*time.Millisecond, 6)
	got := e.ActiveDrift()
	if len(got) != 1 || got[0] != "latency:0" {
		t.Fatalf("ActiveDrift = %v, want [latency:0]", got)
	}
	snap := e.Snapshot()
	if snap.LatencyEvents != 1 {
		t.Fatalf("LatencyEvents = %d, want 1 (enter only)", snap.LatencyEvents)
	}
	if len(snap.Events) != 1 || !snap.Events[0].Enter || snap.Events[0].Kind != DriftLatency || snap.Events[0].Model != 0 {
		t.Fatalf("Events = %+v, want one latency enter event for model 0", snap.Events)
	}
	if snap.Events[0].Value < 1.5 {
		t.Fatalf("enter event ratio = %v, want near 2", snap.Events[0].Value)
	}
	if !snap.Models[0].Drift {
		t.Fatal("snapshot does not mark model 0 drifted")
	}
	// Recovery back to profiled: the exit transition is an event too.
	feedWindows(e, &now, 0, 10*time.Millisecond, 6)
	if len(e.ActiveDrift()) != 0 {
		t.Fatal("drift still active after recovery")
	}
	snap = e.Snapshot()
	if snap.LatencyEvents != 2 {
		t.Fatalf("LatencyEvents = %d, want 2 (enter + exit)", snap.LatencyEvents)
	}
	last := snap.Events[len(snap.Events)-1]
	if last.Enter {
		t.Fatalf("last event = %+v, want an exit transition", last)
	}
}

func TestScoreDriftSelfCalibratedBaseline(t *testing.T) {
	profiled := []time.Duration{10 * time.Millisecond}
	e := New(Config{Enable: true}, profiled, profiled)
	now := time.Duration(0)
	feed := func(score float64, windows int) {
		for i := 0; i < 10*windows; i++ {
			now += windowStep
			e.ObserveScore(now, score)
		}
	}
	feed(0.25, 4) // first closed window self-calibrates the baseline
	snap := e.Snapshot()
	if snap.BaselineScore != 0.25 {
		t.Fatalf("self-calibrated baseline = %v, want 0.25", snap.BaselineScore)
	}
	if snap.ScoreEvents != 0 || snap.ScoreDrift {
		t.Fatal("score drift flagged under a stationary mix")
	}
	feed(0.75, 6) // mean shifts by 0.5 >> scoreBand 0.15
	snap = e.Snapshot()
	if !snap.ScoreDrift {
		t.Fatal("score drift not flagged after the mix shifted")
	}
	if snap.ScoreEvents != 1 {
		t.Fatalf("ScoreEvents = %d, want 1", snap.ScoreEvents)
	}
	got := e.ActiveDrift()
	if len(got) != 1 || got[0] != DriftScore {
		t.Fatalf("ActiveDrift = %v, want [score]", got)
	}
}

// TestObservationPathsZeroAlloc pins the engine's hot-path allocation
// contract: every per-task observation and every planning-side query is
// allocation-free.
func TestObservationPathsZeroAlloc(t *testing.T) {
	profiled := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond}
	e := New(Config{Enable: true}, profiled, profiled)
	exec := make([]time.Duration, 2)
	now := time.Duration(0)
	cases := []struct {
		name string
		fn   func()
	}{
		{"ObserveLatency", func() { now += time.Millisecond; e.ObserveLatency(now, 0, 12*time.Millisecond) }},
		{"ObserveScore", func() { now += time.Millisecond; e.ObserveScore(now, 0.4) }},
		{"Inflation", func() { _ = e.Inflation(0) }},
		{"ExecInto", func() { e.ExecInto(exec) }},
		{"ActiveDriftQuiet", func() { _ = e.ActiveDrift() }},
	}
	for _, tc := range cases {
		if n := testing.AllocsPerRun(200, tc.fn); n != 0 {
			t.Errorf("%s allocates %.1f/op, want 0", tc.name, n)
		}
	}
}
