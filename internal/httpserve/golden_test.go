package httpserve

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"schemble/internal/adapt"
	"schemble/internal/obsv"
	"schemble/internal/qos"
	"schemble/internal/rcache"
	"schemble/internal/serve"
)

// geometry is the first bound and growth of a three-bucket histogram.
type geometry struct {
	min    time.Duration
	growth float64
}

// hist builds a snapshot of a histogram of geometry g holding obs.
func hist(g geometry, obs ...time.Duration) obsv.HistogramSnapshot {
	h := obsv.NewHistogram(g.min, g.growth, 3)
	for _, d := range obs {
		h.Observe(d)
	}
	return h.Snapshot()
}

var (
	eventBounds = geometry{time.Second, 2}            // 1s, 2s, 4s
	wallBounds  = geometry{10 * time.Microsecond, 10} // 10µs, 100µs, 1ms
	latBounds   = geometry{10 * time.Millisecond, 10} // 10ms, 100ms, 1s
)

// fullInput is a runtime with every feature on: two classes, the result
// cache, adaptation, a two-replica pool, non-empty histograms and an
// observer, with counters past a million so a number formatted as a float
// shows.
func fullInput() input {
	var timeAt [qos.LevelShed + 1]time.Duration
	timeAt[qos.LevelFull] = 90 * time.Second
	timeAt[qos.LevelCapped] = 1500 * time.Millisecond
	return input{
		rt: serve.Stats{
			Submitted: 1234567, Served: 1000000, Degraded: 12345, Missed: 2222, Rejected: 20000,
			Resolved: 1034567, Buffered: 3, InFlight: 2, PartCommits: 4321, EarlyTasks: 5432, EarlyUsed: 4987,
			QueueDepth:  []int{1, 4},
			Replicas:    []int{1, 2},
			ReplicaBusy: [][]int{{1}, {0, 1}},
			Models: []serve.ModelHealth{
				{
					Name: "small", Breaker: "closed", ConsecutiveFailures: 1, BreakerTrips: 2,
					Executed: 1000000, Failures: 7, Transient: 11, Stragglers: 5, Crashes: 1,
					Timeouts: 3, Panics: 1, Retries: 9, Hedges: 4, HedgeWins: 2,
					BacklogSeconds:  0.0375,
					TimerOvershoot:  hist(wallBounds, 50*time.Microsecond, 120*time.Microsecond),
					Starved:         hist(wallBounds, 5*time.Microsecond),
					ReplicaExecuted: []uint64{1000000},
					ReplicaFailures: []uint64{7},
				},
				{
					Name: "large", Breaker: "half-open", Down: true,
					Executed: 654321, Failures: 3,
					BacklogSeconds:  0.25,
					TimerOvershoot:  hist(wallBounds, 80*time.Microsecond),
					Starved:         hist(wallBounds),
					ReplicaExecuted: []uint64{400000, 254321},
					ReplicaFailures: []uint64{1, 2},
				},
			},
			TurnEvents: hist(eventBounds, time.Second, time.Second, 3*time.Second),
			PassTime:   hist(wallBounds, 8*time.Microsecond, 250*time.Microsecond),
			Load:       1.25,
			Ladder:     2,
			Classes: []serve.ClassStats{
				{
					Name: "gold", Priority: 1, Weight: 3, Level: qos.LevelCapped, TimeAtLevel: timeAt,
					Submitted: 1100000, Served: 1000000, Degraded: 12345, Missed: 2222, Rejected: 5,
					Cached: 400000, SLOAttainment: 0.9978,
				},
				{
					Name: "bronze", Weight: 1, Level: qos.LevelShed, TimeAtLevel: timeAt,
					Submitted: 19995, Rejected: 19995, Shed: 19990, SLOAttainment: 1,
				},
			},
			Cache: &rcache.Snapshot{
				Entries: 64, Capacity: 1024, Hits: 400000, Misses: 400000, Bypasses: 434567,
				Fills: 399000, Evictions: 12, Expirations: 3, HitRate: 0.5,
			},
			Adapt: &adapt.Snapshot{
				Models: []adapt.ModelAdapt{
					{Samples: 1000000, Mean: 9 * time.Millisecond, P50: 8 * time.Millisecond,
						P90: 12 * time.Millisecond, P99: 20 * time.Millisecond,
						ProfiledMean: 8500 * time.Microsecond, Inflation: 1.4, Drift: true},
					{Samples: 654321, Mean: 30 * time.Millisecond, P50: 28 * time.Millisecond,
						P90: 40 * time.Millisecond, P99: 55 * time.Millisecond,
						ProfiledMean: 31 * time.Millisecond, Inflation: 1},
				},
				BaselineScore: 0.31, LatencyEvents: 3, ScoreEvents: 1,
			},
		},
		obs: obsv.Snapshot{
			TracesTotal: 1034567, TracesDropped: 1034055,
			//schemble:outcome-ok a fixture: two of the observer's latency histograms are enough to pin the rendering
			Latency: map[string]obsv.HistogramSnapshot{
				obsv.OutcomeServed: hist(latBounds, 9*time.Millisecond, 40*time.Millisecond),
				obsv.OutcomeMissed: hist(latBounds, 2*time.Second),
			},
		},
		observed: true,
	}
}

// zeroInput is a zero-config runtime before its first request: no
// classes, no cache, no adaptation, no observer.
func zeroInput() input {
	model := func(name string) serve.ModelHealth {
		return serve.ModelHealth{Name: name, Breaker: "closed",
			TimerOvershoot: hist(wallBounds), Starved: hist(wallBounds),
			ReplicaExecuted: []uint64{0}, ReplicaFailures: []uint64{0}}
	}
	return input{rt: serve.Stats{
		QueueDepth:  []int{0, 0},
		Replicas:    []int{1, 1},
		ReplicaBusy: [][]int{{0}, {0}},
		Models:      []serve.ModelHealth{model("small"), model("large")},
		TurnEvents:  hist(eventBounds),
		PassTime:    hist(wallBounds),
	}}
}

// renderJSON is a handler's JSON body, indented for a readable golden.
func renderJSON(t *testing.T, v any) string {
	t.Helper()
	rec := httptest.NewRecorder()
	writeJSON(rec, v)
	var out bytes.Buffer
	if err := json.Indent(&out, rec.Body.Bytes(), "", "  "); err != nil {
		t.Fatal(err)
	}
	return out.String() + "\n"
}

// checkGolden compares got with testdata/name. A missing golden is
// written and the test fails, so deleting a golden and running the test
// twice regenerates it.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	want, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote missing golden %s", path)
	}
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range min(len(g), len(w)) {
		if g[i] != w[i] {
			t.Fatalf("%s line %d:\n got %q\nwant %q", path, i+1, g[i], w[i])
		}
	}
	t.Fatalf("%s: got %d lines, want %d", path, len(g), len(w))
}

// TestRenderGolden pins the three renderers — /v1/metrics, /v1/stats and
// /v1/health — byte for byte on a full and a zero-config input.
func TestRenderGolden(t *testing.T) {
	st := counters{served: 7, degraded: 2, missed: 3, rejected: 4, canceled: 1,
		sizeSum: 20, latSum: 900 * time.Millisecond}
	for name, in := range map[string]input{"full": fullInput(), "zero": zeroInput()} {
		t.Run(name, func(t *testing.T) {
			var b strings.Builder
			writeMetrics(&b, in)
			checkGolden(t, name+".metrics.golden", b.String())
			checkGolden(t, name+".stats.golden", renderJSON(t, stats(st, in)))
			checkGolden(t, name+".health.golden", renderJSON(t, health(in)))
		})
	}
}
