package main

import (
	"fmt"
	"sort"
	"time"
)

// metricDef fixes a metric's name, unit and direction. bound is the share
// of the parent's median by which an end-to-end metric may worsen before
// it counts as a regression; per-layer metrics carry none. BENCHMARK.json
// repeats these and a test keeps the two in step.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// The bounds are set by the noisiest workload on a 2-core shared box: three
// times the spread (interquartile distance over median) ten seeded runs
// show in a quiet hour, twice what they show in a noisy one. README.md has
// the spreads per workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"goodput_rps", "1/s", "higher", 0.20},
	{"ontime_share", "share", "higher", 0.20},
	{"accuracy_share", "share", "higher", 0.20},
	{"latency_p50_ms", "ms", "lower", 0.15},
	{"latency_p95_ms", "ms", "lower", 0.15},
	{"rss_peak_mb", "MB", "lower", 0.25},
}

var perLayer = []metricDef{
	{name: "pipeline.build_s", unit: "s", better: "lower"},

	{name: "httpserve.handle_us_p50", unit: "us", better: "lower"},
	{name: "httpserve.handle_us_p99", unit: "us", better: "lower"},
	{name: "httpserve.transport_us_p50", unit: "us", better: "lower"},
	{name: "httpserve.added_us_p50", unit: "us", better: "lower"},
	{name: "httpserve.non200_share", unit: "share", better: "lower"},
	{name: "httpserve.saturation_rps", unit: "1/s", better: "higher"},

	{name: "discrepancy.predict_us_p50", unit: "us", better: "lower"},
	{name: "discrepancy.predict_us_p99", unit: "us", better: "lower"},
	{name: "discrepancy.busy_share", unit: "share", better: "lower"},

	{name: "serve.submit_us_p50", unit: "us", better: "lower"},
	{name: "serve.submit_us_p99", unit: "us", better: "lower"},
	{name: "serve.submit_self_us_p50", unit: "us", better: "lower"},
	{name: "serve.dispatch_wait_us_p50", unit: "us", better: "lower"},
	{name: "serve.dispatch_wait_us_p99", unit: "us", better: "lower"},
	{name: "serve.exec_span_us_p50", unit: "us", better: "lower"},
	{name: "serve.finish_us_p50", unit: "us", better: "lower"},
	{name: "serve.finish_us_p99", unit: "us", better: "lower"},
	{name: "serve.timer_overshoot_us_p50", unit: "us", better: "lower"},
	{name: "serve.timer_overshoot_us_p99", unit: "us", better: "lower"},
	{name: "serve.rejected_share", unit: "share", better: "lower"},
	{name: "serve.degraded_share", unit: "share", better: "lower"},

	{name: "core.schedule_calls_per_req", unit: "count", better: "lower"},
	{name: "core.schedule_us_p50", unit: "us", better: "lower"},
	{name: "core.schedule_us_p99", unit: "us", better: "lower"},
	{name: "core.schedule_busy_share", unit: "share", better: "lower"},
	{name: "core.buffer_len_mean", unit: "count", better: "lower"},
	{name: "core.buffer_len_p99", unit: "count", better: "lower"},
	{name: "core.placed_share", unit: "share", better: "higher"},
	{name: "core.reward_calls_per_schedule", unit: "count", better: "lower"},
	{name: "core.reuse_hit_share", unit: "share", better: "higher"},

	{name: "model.predict_us_p50", unit: "us", better: "lower"},
	{name: "model.tasks_per_req", unit: "count", better: "higher"},
	{name: "model.occupancy_max", unit: "share", better: "higher"},
	{name: "model.occupancy_mean", unit: "share", better: "higher"},
	{name: "model.wasted_task_share", unit: "share", better: "lower"},

	{name: "ensemble.aggregate_us_p50", unit: "us", better: "lower"},
	{name: "ensemble.aggregate_calls_per_req", unit: "count", better: "lower"},

	{name: "qos.shed_share", unit: "share", better: "lower"},
	{name: "qos.top_class_ontime_share", unit: "share", better: "higher"},
	{name: "rcache.hit_share", unit: "share", better: "higher"},
	{name: "rcache.key_us_p50", unit: "us", better: "lower"},
	{name: "adapt.score_us_p50", unit: "us", better: "lower"},
	{name: "adapt.inflation_max", unit: "ratio", better: "lower"},
	{name: "obsv.traces_per_req", unit: "count", better: "higher"},
	{name: "obsv.dropped_share", unit: "share", better: "lower"},

	{name: "proc.cpu_ms_per_req", unit: "ms", better: "lower"},
	{name: "go.allocs_per_req", unit: "count", better: "lower"},
	{name: "go.alloc_kb_per_req", unit: "kB", better: "lower"},
	{name: "go.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "go.goroutines_peak", unit: "count", better: "lower"},

	{name: "gen.late_us_p50", unit: "us", better: "lower"},
	{name: "gen.late_us_p99", unit: "us", better: "lower"},
	{name: "trace.spans", unit: "count", better: "lower"},
	{name: "trace.overhead_share", unit: "share", better: "lower"},
}

// tailPercentile is the gated tail. p99 of a 14 s steady window rests on
// eleven samples, and one 100 ms stall of a shared box puts eight requests
// among them: over ten runs it read 15.6-26.6 ms. p95 rests on fifty-six.
const tailPercentile = 0.95

// genLateLimit is the generator lateness (p99) past which an open-loop run
// measured the harness, not the runtime, and is reported invalid. The
// generator shares the Go scheduler with the runtime, whose planner can hold
// a P for several milliseconds on the burst workload; 10 ms is the
// scheduler's own forced-preemption quantum, the longest such a hold lasts
// on a healthy box.
const genLateLimit = 10 * time.Millisecond

// window is the measured part of a run, relative to the run's start.
type window struct{ from, to time.Duration }

func (w window) holds(t time.Duration) bool { return t >= w.from && t < w.to }
func (w window) seconds() float64           { return (w.to - w.from).Seconds() }

// usage is the serving process's resource use between the window's edges.
type usage struct {
	cpu       time.Duration // user + system
	rssPeakKB float64       // VmHWM at the end of the run
}

// tally is the per-run accounting the pipeline compares: every request
// sent in the run (warm-up included), how many got an answer, and how many
// failed to produce one well-formed, correct result.
type tally struct {
	sent, answered, failed int
	problems               []string
}

func (t *tally) merge(o tally) {
	t.sent += o.sent
	t.answered += o.answered
	t.failed += o.failed
	t.problems = append(t.problems, o.problems...)
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.problems) < 10 {
		t.problems = append(t.problems, fmt.Sprintf(format, args...))
	}
}

// samples are the window's requests reduced to what the metrics need.
type samples struct {
	sent, onTime, agree int
	// latMS holds the on-time answers the ensemble computed, timed from
	// the intended send. Cached answers are left out: they resolve inside
	// Submit, so their "latency" is the generator's own lateness, and
	// where about half the answers are cached a median over both kinds
	// flips between two modes three orders of magnitude apart.
	latMS  []float64
	lateUS []float64 // generator lateness, all window requests
}

func collect(recs []*record, win window, agrees func(r *record) bool) samples {
	var s samples
	for _, r := range recs {
		if r == nil || !win.holds(r.at) {
			continue
		}
		s.sent++
		s.lateUS = append(s.lateUS, float64(r.sent-r.at)/1e3)
		if r.ans.onTime() && !r.bad {
			s.onTime++
			if !r.ans.cached {
				s.latMS = append(s.latMS, float64(r.latency())/1e6)
			}
			if agrees(r) {
				s.agree++
			}
		}
	}
	sort.Float64s(s.latMS)
	sort.Float64s(s.lateUS)
	return s
}

// endToEndMetrics computes the user-visible metrics of one untraced run.
func endToEndMetrics(s samples, win window, setupS float64, u usage) map[string]float64 {
	sent := float64(max(s.sent, 1))
	return map[string]float64{
		"setup_s":        setupS,
		"goodput_rps":    float64(s.onTime) / win.seconds(),
		"ontime_share":   float64(s.onTime) / sent,
		"accuracy_share": float64(s.agree) / sent,
		"latency_p50_ms": percentile(s.latMS, 0.5),
		"latency_p95_ms": percentile(s.latMS, tailPercentile),
		"rss_peak_mb":    u.rssPeakKB / 1024,
	}
}
