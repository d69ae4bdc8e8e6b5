package httpserve

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"schemble/internal/obsv"
	"schemble/internal/qos"
	"schemble/internal/serve"
)

// TraceResponse is the /v1/trace payload.
type TraceResponse struct {
	// Enabled is false when the runtime was built without a trace buffer;
	// Total/Dropped are the ring's exact lifetime counters.
	Enabled bool                 `json:"enabled"`
	Total   uint64               `json:"total"`
	Dropped uint64               `json:"dropped"`
	Traces  []obsv.DecisionTrace `json:"traces"`
}

// defaultTraceLast bounds /v1/trace responses when ?last is omitted.
const defaultTraceLast = 64

func (h *Handler) handleTrace(w http.ResponseWriter, r *http.Request) {
	last := defaultTraceLast
	if q := r.URL.Query().Get("last"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n <= 0 {
			http.Error(w, "last must be a positive integer", http.StatusBadRequest)
			return
		}
		last = n
	}
	resp := TraceResponse{Traces: []obsv.DecisionTrace{}}
	if obs := h.srv.Observer(); obs != nil {
		resp.Enabled = true
		snap := obs.Snapshot()
		resp.Total, resp.Dropped = snap.TracesTotal, snap.TracesDropped
		if traces := obs.Last(last); traces != nil {
			resp.Traces = traces
		}
	}
	writeJSON(w, resp)
}

// handleMetrics renders the runtime's counters, gauges and latency
// histograms in the Prometheus text exposition format (version 0.0.4),
// hand-rolled so the server stays dependency-free.
func (h *Handler) handleMetrics(w http.ResponseWriter) {
	var b strings.Builder
	rt := h.srv.Stats()

	writeHeader(&b, "schemble_requests_total", "counter", "Resolved requests by outcome.")
	for _, outcome := range obsv.Outcomes {
		// Exhaustive over the taxonomy (enforced by the
		// exhaustiveoutcome analyzer): a new outcome must pick its
		// Stats counter here to appear in /v1/metrics.
		var v uint64
		switch outcome {
		case obsv.OutcomeServed:
			v = rt.Served
		case obsv.OutcomeDegraded:
			v = rt.Degraded
		case obsv.OutcomeMissed:
			v = rt.Missed
		case obsv.OutcomeRejected:
			v = rt.Rejected
		}
		fmt.Fprintf(&b, "schemble_requests_total{outcome=%q} %d\n", outcome, v)
	}

	writeHeader(&b, "schemble_submitted_total", "counter", "Requests accepted by Submit.")
	fmt.Fprintf(&b, "schemble_submitted_total %d\n", rt.Submitted)

	writeHeader(&b, "schemble_buffered", "gauge", "Requests awaiting scheduling.")
	fmt.Fprintf(&b, "schemble_buffered %d\n", rt.Buffered)
	writeHeader(&b, "schemble_inflight", "gauge", "Committed requests with unfinished tasks.")
	fmt.Fprintf(&b, "schemble_inflight %d\n", rt.InFlight)
	writeHeader(&b, "schemble_draining", "gauge", "1 while the runtime is draining.")
	fmt.Fprintf(&b, "schemble_draining %d\n", boolGauge(rt.Draining))

	writeHeader(&b, "schemble_load", "gauge", "Smoothed overload-controller pressure: committed and buffered work over the admission target (~1 when the target's seconds of service work wait).")
	fmt.Fprintf(&b, "schemble_load %g\n", rt.Load)
	writeHeader(&b, "schemble_ladder_state", "gauge", "Degradation-ladder rung (0 = full service).")
	fmt.Fprintf(&b, "schemble_ladder_state %d\n", rt.Ladder)
	writeHeader(&b, "schemble_turn_events", "histogram",
		"Events (submissions, task completions, deadlines) a coordinator turn handled before its one planning pass.")
	writeHistogram(&b, "schemble_turn_events", "", rt.TurnEvents)
	writeHeader(&b, "schemble_pass_seconds", "histogram", "Wall time of a coordinator turn's planning pass.")
	writeHistogram(&b, "schemble_pass_seconds", "", rt.PassTime)
	writeCacheMetrics(&b, rt)
	writeAdaptMetrics(&b, rt)
	writeClassMetrics(&b, rt)
	writeModelMetrics(&b, rt)
	writeObserverMetrics(&b, h.srv.Observer())

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(b.String()))
}

func writeHeader(b *strings.Builder, name, typ, help string) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func boolGauge(v bool) int {
	if v {
		return 1
	}
	return 0
}

// writeCacheMetrics renders the result-cache counters; cacheless
// deployments render nothing.
func writeCacheMetrics(b *strings.Builder, rt serve.Stats) {
	c := rt.Cache
	if c == nil {
		return
	}
	writeHeader(b, "schemble_cache_requests_total", "counter", "Cache lookups by result.")
	for _, result := range obsv.CacheOutcomes {
		// Exhaustive over the cache taxonomy (enforced by the
		// exhaustiveoutcome analyzer): a new cache outcome must pick its
		// Snapshot counter here to appear in /v1/metrics.
		var v uint64
		switch result {
		case obsv.CacheOutcomeHit:
			v = c.Hits
		case obsv.CacheOutcomeMiss:
			v = c.Misses
		case obsv.CacheOutcomeBypass:
			v = c.Bypasses
		}
		fmt.Fprintf(b, "schemble_cache_requests_total{result=%q} %d\n", result, v)
	}
	writeHeader(b, "schemble_cache_fills_total", "counter", "Entries written on miss resolution.")
	fmt.Fprintf(b, "schemble_cache_fills_total %d\n", c.Fills)
	writeHeader(b, "schemble_cache_evictions_total", "counter", "Entries evicted by LRU capacity pressure.")
	fmt.Fprintf(b, "schemble_cache_evictions_total %d\n", c.Evictions)
	writeHeader(b, "schemble_cache_expirations_total", "counter", "Entries dropped at lookup for exceeding the TTL.")
	fmt.Fprintf(b, "schemble_cache_expirations_total %d\n", c.Expirations)
	writeHeader(b, "schemble_cache_entries", "gauge", "Live cache entries.")
	fmt.Fprintf(b, "schemble_cache_entries %d\n", c.Entries)
	writeHeader(b, "schemble_cache_hit_rate", "gauge", "Hits over hits+misses (bypasses excluded).")
	fmt.Fprintf(b, "schemble_cache_hit_rate %g\n", c.HitRate)
}

// writeAdaptMetrics renders the online-adaptation layer's state: live
// latency quantiles and inflation factors per model, drift detector
// signals and transition counters. Deployments with adaptation off
// render nothing.
func writeAdaptMetrics(b *strings.Builder, rt serve.Stats) {
	a := rt.Adapt
	if a == nil {
		return
	}
	name := func(k int) string {
		if k < len(rt.Models) {
			return rt.Models[k].Name
		}
		return strconv.Itoa(k)
	}
	writeHeader(b, "schemble_adapt_samples_total", "counter", "Latency observations ingested into the live profile, by model.")
	for k := range a.Models {
		fmt.Fprintf(b, "schemble_adapt_samples_total{model=%q} %d\n", name(k), a.Models[k].Samples)
	}
	writeHeader(b, "schemble_adapt_inflation", "gauge", "Live cost-inflation factor (observed quantile over profiled mean) the scheduler plans with, by model.")
	for k := range a.Models {
		fmt.Fprintf(b, "schemble_adapt_inflation{model=%q} %g\n", name(k), a.Models[k].Inflation)
	}
	writeHeader(b, "schemble_adapt_latency_seconds", "gauge", "Live latency profile quantiles (virtual time), by model.")
	for k := range a.Models {
		m := a.Models[k]
		fmt.Fprintf(b, "schemble_adapt_latency_seconds{model=%q,quantile=\"0.5\"} %s\n", name(k), formatSeconds(m.P50.Seconds()))
		fmt.Fprintf(b, "schemble_adapt_latency_seconds{model=%q,quantile=\"0.9\"} %s\n", name(k), formatSeconds(m.P90.Seconds()))
		fmt.Fprintf(b, "schemble_adapt_latency_seconds{model=%q,quantile=\"0.99\"} %s\n", name(k), formatSeconds(m.P99.Seconds()))
	}
	writeHeader(b, "schemble_drift_active", "gauge", "1 while the drift detector flags the signal (per-model latency, global score).")
	for k := range a.Models {
		fmt.Fprintf(b, "schemble_drift_active{signal=\"latency\",model=%q} %d\n", name(k), boolGauge(a.Models[k].Drift))
	}
	fmt.Fprintf(b, "schemble_drift_active{signal=\"score\"} %d\n", boolGauge(a.ScoreDrift))
	writeHeader(b, "schemble_drift_events_total", "counter", "Drift transitions (enter or clear) observed, by signal.")
	fmt.Fprintf(b, "schemble_drift_events_total{signal=\"latency\"} %d\n", a.LatencyEvents)
	fmt.Fprintf(b, "schemble_drift_events_total{signal=\"score\"} %d\n", a.ScoreEvents)
}

// writeClassMetrics renders per-class admission/outcome metrics; classless
// deployments render nothing.
func writeClassMetrics(b *strings.Builder, rt serve.Stats) {
	if len(rt.Classes) == 0 {
		return
	}
	writeHeader(b, "schemble_class_requests_total", "counter", "Resolved requests by class and outcome.")
	for _, c := range rt.Classes {
		for _, outcome := range obsv.Outcomes {
			// Exhaustive over the taxonomy (enforced by the
			// exhaustiveoutcome analyzer): a new outcome must pick its
			// per-class counter here to appear in /v1/metrics.
			var v uint64
			switch outcome {
			case obsv.OutcomeServed:
				v = c.Served
			case obsv.OutcomeDegraded:
				v = c.Degraded
			case obsv.OutcomeMissed:
				v = c.Missed
			case obsv.OutcomeRejected:
				v = c.Rejected
			}
			fmt.Fprintf(b, "schemble_class_requests_total{class=%q,outcome=%q} %d\n", c.Name, outcome, v)
		}
	}
	writeHeader(b, "schemble_class_shed_total", "counter", "Requests shed by the admission controller, by class (a subset of rejected).")
	for _, c := range rt.Classes {
		fmt.Fprintf(b, "schemble_class_shed_total{class=%q} %d\n", c.Name, c.Shed)
	}
	writeHeader(b, "schemble_class_cached_total", "counter", "Requests answered from the result cache before admission, by class (a subset of served).")
	for _, c := range rt.Classes {
		fmt.Fprintf(b, "schemble_class_cached_total{class=%q} %d\n", c.Name, c.Cached)
	}
	writeHeader(b, "schemble_class_slo_attainment", "gauge", "Fraction of completed requests that met the deadline, by class.")
	for _, c := range rt.Classes {
		fmt.Fprintf(b, "schemble_class_slo_attainment{class=%q} %g\n", c.Name, c.SLOAttainment)
	}
	writeHeader(b, "schemble_class_service_level", "gauge", "Degradation level by class (0 full; 1 capped to half the ensemble; 2 greedy, one model; 3 shed). Every admitted level is planned by the configured scheduler.")
	for _, c := range rt.Classes {
		var lvl int
		switch c.Level {
		case "full":
			lvl = 0
		case "capped":
			lvl = 1
		case "greedy":
			lvl = 2
		case "shed":
			lvl = 3
		}
		fmt.Fprintf(b, "schemble_class_service_level{class=%q} %d\n", c.Name, lvl)
	}
	writeHeader(b, "schemble_class_level_seconds_total", "counter", "Virtual time spent at each degradation level, by class.")
	for _, c := range rt.Classes {
		for l, d := range c.TimeAtLevel {
			fmt.Fprintf(b, "schemble_class_level_seconds_total{class=%q,level=%q} %s\n", c.Name, qos.Level(l), formatSeconds(d.Seconds()))
		}
	}
}

// writeModelMetrics renders per-model health: queue depth gauges, the
// replica-pool gauges, breaker and crash-window state, and the
// fault/mitigation counters.
func writeModelMetrics(b *strings.Builder, rt serve.Stats) {
	writeHeader(b, "schemble_model_queue_depth", "gauge", "Per-model task queue occupancy (excludes tasks a replica has taken).")
	for k, m := range rt.Models {
		fmt.Fprintf(b, "schemble_model_queue_depth{model=%q} %d\n", m.Name, rt.QueueDepth[k])
	}
	writeHeader(b, "schemble_model_replicas", "gauge", "Replica-pool size per model.")
	for k, m := range rt.Models {
		fmt.Fprintf(b, "schemble_model_replicas{model=%q} %d\n", m.Name, rt.Replicas[k])
	}
	writeHeader(b, "schemble_replica_busy", "gauge", "1 while the replica holds a task whose completion is not reported yet, 0 when idle.")
	for k, m := range rt.Models {
		for r, busy := range rt.ReplicaBusy[k] {
			fmt.Fprintf(b, "schemble_replica_busy{model=%q,replica=\"%d\"} %d\n", m.Name, r, busy)
		}
	}
	writeHeader(b, "schemble_replica_executed_total", "counter", "Tasks executed, by replica.")
	for _, m := range rt.Models {
		for r, v := range m.ReplicaExecuted {
			fmt.Fprintf(b, "schemble_replica_executed_total{model=%q,replica=\"%d\"} %d\n", m.Name, r, v)
		}
	}
	writeHeader(b, "schemble_replica_failures_total", "counter", "Tasks failed permanently, by replica.")
	for _, m := range rt.Models {
		for r, v := range m.ReplicaFailures {
			fmt.Fprintf(b, "schemble_replica_failures_total{model=%q,replica=\"%d\"} %d\n", m.Name, r, v)
		}
	}
	writeHeader(b, "schemble_model_breaker_open", "gauge", "1 while the model's circuit breaker is open.")
	for _, m := range rt.Models {
		fmt.Fprintf(b, "schemble_model_breaker_open{model=%q} %d\n", m.Name, boolGauge(m.Breaker == "open"))
	}
	writeHeader(b, "schemble_model_down", "gauge", "1 while the model sits in a crash-recovery window.")
	for _, m := range rt.Models {
		fmt.Fprintf(b, "schemble_model_down{model=%q} %d\n", m.Name, boolGauge(m.Down))
	}
	writeHeader(b, "schemble_model_backlog_seconds", "gauge",
		"Virtual seconds of committed work the model has yet to drain, averaged over its replicas, as the last planning pass read it; schemble_load is built on the largest.")
	for _, m := range rt.Models {
		fmt.Fprintf(b, "schemble_model_backlog_seconds{model=%q} %g\n", m.Name, m.BacklogSeconds)
	}
	counters := []struct {
		name, help string
		v          func(serve.ModelHealth) uint64
	}{
		{"executed", "Tasks whose attempt chain ran.", func(m serve.ModelHealth) uint64 { return m.Executed }},
		{"failures", "Tasks that failed permanently.", func(m serve.ModelHealth) uint64 { return m.Failures }},
		{"transient_faults", "Transient faults observed.", func(m serve.ModelHealth) uint64 { return m.Transient }},
		{"stragglers", "Straggling attempts observed.", func(m serve.ModelHealth) uint64 { return m.Stragglers }},
		{"crashes", "Attempts hitting a crashed replica.", func(m serve.ModelHealth) uint64 { return m.Crashes }},
		{"timeouts", "Attempts abandoned at the deadline.", func(m serve.ModelHealth) uint64 { return m.Timeouts }},
		{"retries", "Retry attempts issued.", func(m serve.ModelHealth) uint64 { return m.Retries }},
		{"hedges", "Hedge attempts issued.", func(m serve.ModelHealth) uint64 { return m.Hedges }},
		{"breaker_trips", "Circuit breaker open transitions.", func(m serve.ModelHealth) uint64 { return m.BreakerTrips }},
	}
	for _, c := range counters {
		name := "schemble_model_" + c.name + "_total"
		writeHeader(b, name, "counter", c.help)
		for _, m := range rt.Models {
			fmt.Fprintf(b, "%s{model=%q} %d\n", name, m.Name, c.v(m))
		}
	}
	writeHeader(b, "schemble_task_overshoot_seconds", "histogram",
		"Wall time by which a completed model wait outlasted the duration it was asked for, by model.")
	for _, m := range rt.Models {
		writeHistogram(b, "schemble_task_overshoot_seconds", fmt.Sprintf("model=%q", m.Name), m.TimerOvershoot)
	}
	writeHeader(b, "schemble_model_starved_seconds", "histogram",
		"Wall time a replica sat idle while queries waited in the buffer, one observation per such wait, by model.")
	for _, m := range rt.Models {
		writeHistogram(b, "schemble_model_starved_seconds", fmt.Sprintf("model=%q", m.Name), m.Starved)
	}
}

// writeObserverMetrics renders trace counters and the per-outcome latency
// histograms; a nil observer (observability disabled) renders nothing.
func writeObserverMetrics(b *strings.Builder, obs *obsv.Observer) {
	if obs == nil {
		return
	}
	snap := obs.Snapshot()
	writeHeader(b, "schemble_traces_total", "counter", "Decision traces recorded.")
	fmt.Fprintf(b, "schemble_traces_total %d\n", snap.TracesTotal)
	writeHeader(b, "schemble_traces_dropped_total", "counter", "Decision traces evicted from the ring buffer.")
	fmt.Fprintf(b, "schemble_traces_dropped_total %d\n", snap.TracesDropped)

	writeHeader(b, "schemble_request_latency_seconds", "histogram",
		"End-to-end request latency (virtual time) by outcome.")
	labels := make([]string, 0, len(snap.Latency))
	for outcome := range snap.Latency {
		labels = append(labels, outcome)
	}
	sort.Strings(labels)
	for _, outcome := range labels {
		writeHistogram(b, "schemble_request_latency_seconds", fmt.Sprintf("outcome=%q", outcome), snap.Latency[outcome])
	}
}

// writeHistogram renders one series of a Prometheus histogram: cumulative
// le-buckets, sum and count. label is a preformatted name="value" pair, or
// empty for a family of one series.
func writeHistogram(b *strings.Builder, name, label string, hs obsv.HistogramSnapshot) {
	var le, series string
	if label != "" {
		le, series = label+",", "{"+label+"}"
	}
	var cum uint64
	for i, bound := range hs.Bounds {
		cum += hs.Counts[i]
		fmt.Fprintf(b, "%s_bucket{%sle=%q} %d\n", name, le, formatSeconds(bound.Seconds()), cum)
	}
	fmt.Fprintf(b, "%s_bucket{%sle=\"+Inf\"} %d\n", name, le, hs.Count)
	fmt.Fprintf(b, "%s_sum%s %s\n", name, series, formatSeconds(hs.Sum.Seconds()))
	fmt.Fprintf(b, "%s_count%s %d\n", name, series, hs.Count)
}

func formatSeconds(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
