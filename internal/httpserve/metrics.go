package httpserve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"schemble/internal/adapt"
	"schemble/internal/obsv"
	"schemble/internal/qos"
	"schemble/internal/rcache"
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

// kind is a family's Prometheus metric type.
type kind string

const (
	counter   kind = "counter"
	gauge     kind = "gauge"
	histogram kind = "histogram"
)

// emitFunc records one series of a family: its value (an int, a uint64, a
// float64 or an obsv.HistogramSnapshot) and its label values in the row's
// label order. An empty label value leaves that label out of the series.
type emitFunc func(v any, labels ...string)

// instrument is one metric family. /v1/metrics renders it as a Prometheus
// family, /v1/stats under "runtime" and, when its first label is "model",
// /v1/health under "models", all under its name. A family that emits no
// series is left out of every surface.
type instrument struct {
	name, help string
	kind       kind
	labels     []string
	read       func(in input, emit emitFunc)
}

// instruments is every family the runtime exports, in exposition order.
var instruments = []instrument{
	{"schemble_requests_total", "Resolved requests by outcome.", counter, []string{"outcome"},
		func(in input, emit emitFunc) {
			for _, outcome := range obsv.Outcomes {
				// Exhaustive over the taxonomy (enforced by the
				// exhaustiveoutcome analyzer): a new outcome must pick its
				// Stats counter here to appear in /v1/metrics.
				var v uint64
				switch outcome {
				case obsv.OutcomeServed:
					v = in.rt.Served
				case obsv.OutcomeDegraded:
					v = in.rt.Degraded
				case obsv.OutcomeMissed:
					v = in.rt.Missed
				case obsv.OutcomeRejected:
					v = in.rt.Rejected
				}
				emit(v, outcome)
			}
		}},
	{"schemble_resolved_total", "Requests resolved, whatever the outcome: the sum of schemble_requests_total.", counter, nil,
		func(in input, emit emitFunc) { emit(in.rt.Resolved) }},
	{"schemble_submitted_total", "Requests accepted by Submit.", counter, nil,
		func(in input, emit emitFunc) { emit(in.rt.Submitted) }},
	{"schemble_buffered", "Requests awaiting scheduling.", gauge, nil,
		func(in input, emit emitFunc) { emit(in.rt.Buffered) }},
	{"schemble_inflight", "Committed requests with unfinished tasks.", gauge, nil,
		func(in input, emit emitFunc) { emit(in.rt.InFlight) }},
	{"schemble_draining", "1 while the runtime is draining.", gauge, nil,
		func(in input, emit emitFunc) { emit(boolGauge(in.rt.Draining)) }},
	{"schemble_load", "Smoothed overload-controller pressure: committed and buffered work over the admission target (~1 when the target's seconds of service work wait).", gauge, nil,
		func(in input, emit emitFunc) { emit(in.rt.Load) }},
	{"schemble_ladder_state", "Degradation-ladder rung (0 = full service).", gauge, nil,
		func(in input, emit emitFunc) { emit(in.rt.Ladder) }},
	{"schemble_turn_events", "Events (submissions, task completions, deadlines) a coordinator turn handled before its one planning pass.", histogram, nil,
		func(in input, emit emitFunc) { emit(in.rt.TurnEvents) }},
	{"schemble_pass_seconds", "Wall time of a coordinator turn's planning pass.", histogram, nil,
		func(in input, emit emitFunc) { emit(in.rt.PassTime) }},
	{"schemble_part_commits_total", "Queries committed, for lack of room, onto a strict part of their capped plan within one reward step of it.", counter, nil,
		func(in input, emit emitFunc) { emit(in.rt.PartCommits) }},
	{"schemble_early_tasks_total", "Tasks dispatched to an idle model of a waiting query's plan ahead of the query's commit.", counter, nil,
		func(in input, emit emitFunc) { emit(in.rt.EarlyTasks) }},
	{"schemble_early_used_total", "Early tasks a commit kept, as output in hand or still running, instead of dispatching the model again.", counter, nil,
		func(in input, emit emitFunc) { emit(in.rt.EarlyUsed) }},

	{"schemble_cache_requests_total", "Cache lookups by result.", counter, []string{"result"},
		func(in input, emit emitFunc) {
			c := in.rt.Cache
			if c == nil {
				return
			}
			for _, result := range obsv.CacheOutcomes {
				// Exhaustive over the cache taxonomy (enforced by the
				// exhaustiveoutcome analyzer): a new cache outcome must pick
				// its Snapshot counter here to appear in /v1/metrics.
				var v uint64
				switch result {
				case obsv.CacheOutcomeHit:
					v = c.Hits
				case obsv.CacheOutcomeMiss:
					v = c.Misses
				case obsv.CacheOutcomeBypass:
					v = c.Bypasses
				}
				emit(v, result)
			}
		}},
	cacheRow("schemble_cache_fills_total", "Entries written on miss resolution.", counter,
		func(c rcache.Snapshot) any { return c.Fills }),
	cacheRow("schemble_cache_evictions_total", "Entries evicted by LRU capacity pressure.", counter,
		func(c rcache.Snapshot) any { return c.Evictions }),
	cacheRow("schemble_cache_expirations_total", "Entries dropped at lookup for exceeding the TTL.", counter,
		func(c rcache.Snapshot) any { return c.Expirations }),
	cacheRow("schemble_cache_entries", "Live cache entries.", gauge,
		func(c rcache.Snapshot) any { return c.Entries }),
	cacheRow("schemble_cache_capacity", "Cache entry capacity.", gauge,
		func(c rcache.Snapshot) any { return c.Capacity }),
	cacheRow("schemble_cache_hit_rate", "Hits over hits+misses (bypasses excluded).", gauge,
		func(c rcache.Snapshot) any { return c.HitRate }),

	adaptRow("schemble_adapt_samples_total", "Latency observations ingested into the live profile, by model.", counter,
		func(m adapt.ModelAdapt) any { return m.Samples }),
	adaptRow("schemble_adapt_inflation", "Live cost-inflation factor (observed quantile over profiled mean) the scheduler plans with, by model.", gauge,
		func(m adapt.ModelAdapt) any { return m.Inflation }),
	{"schemble_adapt_latency_seconds", "Live latency profile quantiles (virtual time), by model.", gauge, []string{"model", "quantile"},
		func(in input, emit emitFunc) {
			if a := in.rt.Adapt; a != nil {
				for k, m := range a.Models {
					emit(m.P50.Seconds(), modelName(in.rt, k), "0.5")
					emit(m.P90.Seconds(), modelName(in.rt, k), "0.9")
					emit(m.P99.Seconds(), modelName(in.rt, k), "0.99")
				}
			}
		}},
	adaptRow("schemble_adapt_latency_mean_seconds", "Live latency profile mean (virtual time), by model.", gauge,
		func(m adapt.ModelAdapt) any { return m.Mean.Seconds() }),
	adaptRow("schemble_adapt_profiled_mean_seconds", "Frozen profiled mean latency the inflation factor is taken over, by model.", gauge,
		func(m adapt.ModelAdapt) any { return m.ProfiledMean.Seconds() }),
	{"schemble_drift_active", "1 while the drift detector flags the signal (per-model latency, global score).", gauge, []string{"signal", "model"},
		func(in input, emit emitFunc) {
			if a := in.rt.Adapt; a != nil {
				for k, m := range a.Models {
					emit(boolGauge(m.Drift), "latency", modelName(in.rt, k))
				}
				emit(boolGauge(a.ScoreDrift), "score", "")
			}
		}},
	{"schemble_drift_events_total", "Drift transitions (enter or clear) observed, by signal.", counter, []string{"signal"},
		func(in input, emit emitFunc) {
			if a := in.rt.Adapt; a != nil {
				emit(a.LatencyEvents, "latency")
				emit(a.ScoreEvents, "score")
			}
		}},
	{"schemble_adapt_baseline_score", "Self-calibrated difficulty-score baseline the score-drift detector compares against.", gauge, nil,
		func(in input, emit emitFunc) {
			if a := in.rt.Adapt; a != nil {
				emit(a.BaselineScore)
			}
		}},

	{"schemble_class_requests_total", "Resolved requests by class and outcome.", counter, []string{"class", "outcome"},
		func(in input, emit emitFunc) {
			for _, c := range in.rt.Classes {
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
					emit(v, c.Name, outcome)
				}
			}
		}},
	classRow("schemble_class_submitted_total", "Requests submitted, by class.", counter,
		func(c serve.ClassStats) any { return c.Submitted }),
	classRow("schemble_class_shed_total", "Requests shed by the admission controller, by class (a subset of rejected).", counter,
		func(c serve.ClassStats) any { return c.Shed }),
	classRow("schemble_class_cached_total", "Requests answered from the result cache before admission, by class (a subset of served).", counter,
		func(c serve.ClassStats) any { return c.Cached }),
	classRow("schemble_class_slo_attainment", "Fraction of completed requests that met the deadline, by class.", gauge,
		func(c serve.ClassStats) any { return c.SLOAttainment }),
	classRow("schemble_class_service_level", "Degradation level by class (0 full; 1 capped; 2 shed).", gauge,
		func(c serve.ClassStats) any { return int(c.Level) }),
	{"schemble_class_level_seconds_total", "Virtual time spent at each degradation level, by class.", counter, []string{"class", "level"},
		func(in input, emit emitFunc) {
			for _, c := range in.rt.Classes {
				for l, d := range c.TimeAtLevel {
					emit(d.Seconds(), c.Name, qos.Level(l).String())
				}
			}
		}},
	classRow("schemble_class_priority", "Admission priority by class (higher sheds last).", gauge,
		func(c serve.ClassStats) any { return c.Priority }),
	classRow("schemble_class_weight", "Admission fair-share weight by class.", gauge,
		func(c serve.ClassStats) any { return c.Weight }),

	{"schemble_model_queue_depth", "Per-model task queue occupancy (excludes tasks a replica has taken).", gauge, []string{"model"},
		func(in input, emit emitFunc) {
			for k, m := range in.rt.Models {
				emit(in.rt.QueueDepth[k], m.Name)
			}
		}},
	{"schemble_model_replicas", "Replica-pool size per model.", gauge, []string{"model"},
		func(in input, emit emitFunc) {
			for k, m := range in.rt.Models {
				emit(in.rt.Replicas[k], m.Name)
			}
		}},
	{"schemble_replica_busy", "1 while the replica holds a task whose completion is not reported yet, 0 when idle.", gauge, []string{"model", "replica"},
		func(in input, emit emitFunc) {
			for k, m := range in.rt.Models {
				for r, busy := range in.rt.ReplicaBusy[k] {
					emit(busy, m.Name, strconv.Itoa(r))
				}
			}
		}},
	{"schemble_replica_executed_total", "Tasks executed, by replica.", counter, []string{"model", "replica"},
		func(in input, emit emitFunc) {
			for _, m := range in.rt.Models {
				for r, v := range m.ReplicaExecuted {
					emit(v, m.Name, strconv.Itoa(r))
				}
			}
		}},
	{"schemble_replica_failures_total", "Tasks failed permanently, by replica.", counter, []string{"model", "replica"},
		func(in input, emit emitFunc) {
			for _, m := range in.rt.Models {
				for r, v := range m.ReplicaFailures {
					emit(v, m.Name, strconv.Itoa(r))
				}
			}
		}},
	modelRow("schemble_model_breaker_open", "1 while the model's circuit breaker is open.", gauge,
		func(m serve.ModelHealth) any { return boolGauge(m.Breaker == "open") }),
	{"schemble_model_breaker_state", "1 for the circuit breaker's current state (closed, open or half-open), by model.", gauge, []string{"model", "state"},
		func(in input, emit emitFunc) {
			for _, m := range in.rt.Models {
				emit(1, m.Name, m.Breaker)
			}
		}},
	modelRow("schemble_model_down", "1 while the fault injector holds the model in a crash-recovery window: the injector's state, which the scheduler does not read.", gauge,
		func(m serve.ModelHealth) any { return boolGauge(m.Down) }),
	modelRow("schemble_model_consecutive_failures", "Permanent task failures in a row, which the circuit breaker counts toward tripping.", gauge,
		func(m serve.ModelHealth) any { return m.ConsecutiveFailures }),
	modelRow("schemble_model_backlog_seconds", "Virtual seconds of committed work the model has yet to drain, averaged over its replicas, as the last planning pass read it; schemble_load is built on the largest.", gauge,
		func(m serve.ModelHealth) any { return m.BacklogSeconds }),
	modelRow("schemble_model_executed_total", "Tasks whose attempt chain ran.", counter,
		func(m serve.ModelHealth) any { return m.Executed }),
	modelRow("schemble_model_failures_total", "Tasks that failed permanently.", counter,
		func(m serve.ModelHealth) any { return m.Failures }),
	modelRow("schemble_model_transient_faults_total", "Transient faults observed.", counter,
		func(m serve.ModelHealth) any { return m.Transient }),
	modelRow("schemble_model_stragglers_total", "Straggling attempts observed.", counter,
		func(m serve.ModelHealth) any { return m.Stragglers }),
	modelRow("schemble_model_crashes_total", "Attempts hitting a crashed replica.", counter,
		func(m serve.ModelHealth) any { return m.Crashes }),
	modelRow("schemble_model_timeouts_total", "Attempts abandoned at the deadline.", counter,
		func(m serve.ModelHealth) any { return m.Timeouts }),
	modelRow("schemble_model_panics_total", "Model panics recovered as failed attempts.", counter,
		func(m serve.ModelHealth) any { return m.Panics }),
	modelRow("schemble_model_retries_total", "Retry attempts issued.", counter,
		func(m serve.ModelHealth) any { return m.Retries }),
	modelRow("schemble_model_hedges_total", "Hedge attempts issued.", counter,
		func(m serve.ModelHealth) any { return m.Hedges }),
	modelRow("schemble_model_hedge_wins_total", "Hedge attempts that answered before the attempt they hedged.", counter,
		func(m serve.ModelHealth) any { return m.HedgeWins }),
	modelRow("schemble_model_breaker_trips_total", "Circuit breaker open transitions.", counter,
		func(m serve.ModelHealth) any { return m.BreakerTrips }),
	modelRow("schemble_task_overshoot_seconds", "Wall time by which a completed model wait returned past its target instant, by model: how late its result was delivered.", histogram,
		func(m serve.ModelHealth) any { return m.TimerOvershoot }),
	modelRow("schemble_model_starved_seconds", "Wall time a replica sat idle while queries waited in the buffer, one observation per such wait, by model.", histogram,
		func(m serve.ModelHealth) any { return m.Starved }),

	{"schemble_traces_total", "Decision traces recorded.", counter, nil,
		func(in input, emit emitFunc) {
			if in.observed {
				emit(in.obs.TracesTotal)
			}
		}},
	{"schemble_traces_dropped_total", "Decision traces evicted from the ring buffer.", counter, nil,
		func(in input, emit emitFunc) {
			if in.observed {
				emit(in.obs.TracesDropped)
			}
		}},
	{"schemble_request_latency_seconds", "End-to-end request latency (virtual time) by outcome.", histogram, []string{"outcome"},
		func(in input, emit emitFunc) {
			outcomes := make([]string, 0, len(in.obs.Latency))
			for outcome := range in.obs.Latency {
				outcomes = append(outcomes, outcome)
			}
			sort.Strings(outcomes)
			for _, outcome := range outcomes {
				emit(in.obs.Latency[outcome], outcome)
			}
		}},
}

// modelRow is a family with one series per model, read from its health.
func modelRow(name, help string, k kind, v func(serve.ModelHealth) any) instrument {
	return instrument{name, help, k, []string{"model"}, func(in input, emit emitFunc) {
		for _, m := range in.rt.Models {
			emit(v(m), m.Name)
		}
	}}
}

// cacheRow is an unlabelled family read from the result cache's snapshot;
// cacheless deployments render none.
func cacheRow(name, help string, k kind, v func(rcache.Snapshot) any) instrument {
	return instrument{name, help, k, nil, func(in input, emit emitFunc) {
		if c := in.rt.Cache; c != nil {
			emit(v(*c))
		}
	}}
}

// adaptRow is a family with one series per model, read from its live
// profile; deployments with adaptation off render none.
func adaptRow(name, help string, k kind, v func(adapt.ModelAdapt) any) instrument {
	return instrument{name, help, k, []string{"model"}, func(in input, emit emitFunc) {
		if a := in.rt.Adapt; a != nil {
			for i, m := range a.Models {
				emit(v(m), modelName(in.rt, i))
			}
		}
	}}
}

// classRow is a family with one series per class; classless deployments
// render none.
func classRow(name, help string, k kind, v func(serve.ClassStats) any) instrument {
	return instrument{name, help, k, []string{"class"}, func(in input, emit emitFunc) {
		for _, c := range in.rt.Classes {
			emit(v(c), c.Name)
		}
	}}
}

// modelName is model k's name, or its index past the runtime's models.
func modelName(rt serve.Stats, k int) string {
	if k < len(rt.Models) {
		return rt.Models[k].Name
	}
	return strconv.Itoa(k)
}

func boolGauge(v bool) int {
	if v {
		return 1
	}
	return 0
}

// series is one emitted value of a family with its label values.
type series struct {
	v      any
	labels []string
}

// series reads the family's series from in.
func (ins instrument) series(in input) []series {
	var out []series
	ins.read(in, func(v any, labels ...string) { out = append(out, series{v, labels}) })
	return out
}

// labelPairs renders a series' labels as name="value" pairs, leaving out
// the empty values.
func (ins instrument) labelPairs(values []string) string {
	var pairs []string
	for i, v := range values {
		if v != "" {
			pairs = append(pairs, fmt.Sprintf("%s=%q", ins.labels[i], v))
		}
	}
	return strings.Join(pairs, ",")
}

func (h *Handler) handleMetrics(w http.ResponseWriter) {
	var b strings.Builder
	writeMetrics(&b, h.input())
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(b.String()))
}

// writeMetrics renders every family in the Prometheus text exposition
// format (version 0.0.4), hand-rolled so the server stays dependency-free.
func writeMetrics(b *strings.Builder, in input) {
	for _, ins := range instruments {
		ss := ins.series(in)
		if len(ss) == 0 {
			continue
		}
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", ins.name, ins.help, ins.name, ins.kind)
		for _, s := range ss {
			pairs := ins.labelPairs(s.labels)
			if hs, ok := s.v.(obsv.HistogramSnapshot); ok {
				writeHistogram(b, ins.name, pairs, hs)
				continue
			}
			if pairs != "" {
				pairs = "{" + pairs + "}"
			}
			fmt.Fprintf(b, "%s%s %s\n", ins.name, pairs, formatValue(s.v))
		}
	}
}

// writeHistogram renders one series of a Prometheus histogram: cumulative
// le-buckets, sum and count. label is a preformatted name="value" list, or
// empty for a family of one series. Each le is its bound truncated to whole
// nanoseconds: observations are whole nanoseconds, so one is at most the
// truncated bound exactly when it is at most the bound.
func writeHistogram(b *strings.Builder, name, label string, hs obsv.HistogramSnapshot) {
	var le, series string
	if label != "" {
		le, series = label+",", "{"+label+"}"
	}
	var cum uint64
	for i, bound := range hs.Bounds {
		cum += hs.Counts[i]
		fmt.Fprintf(b, "%s_bucket{%sle=%q} %d\n", name, le, formatValue(time.Duration(bound).Seconds()), cum)
	}
	fmt.Fprintf(b, "%s_bucket{%sle=\"+Inf\"} %d\n", name, le, hs.Count)
	fmt.Fprintf(b, "%s_sum%s %s\n", name, series, formatValue(hs.Sum.Seconds()))
	fmt.Fprintf(b, "%s_count%s %d\n", name, series, hs.Count)
}

// formatValue renders a sample value: integers as integers, floats in
// their shortest form.
func formatValue(v any) string {
	switch v := v.(type) {
	case int:
		return strconv.Itoa(v)
	case uint64:
		return strconv.FormatUint(v, 10)
	case float64:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
	panic(fmt.Sprintf("httpserve: instrument value of type %T", v))
}

// histogramJSON is a histogram series in JSON, in the family's unit.
type histogramJSON struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
	P50   float64 `json:"p50"`
	P99   float64 `json:"p99"`
}

// tree renders the families keep selects as one JSON object, each under its
// name: an unlabelled family is its value, a labelled one objects nested by
// label value in label order, and a histogram series {count, sum, p50, p99}.
func tree(in input, keep func(instrument) bool) object {
	var out object
	for _, ins := range instruments {
		if !keep(ins) {
			continue
		}
		var root any
		for _, s := range ins.series(in) {
			v := s.v
			if hs, ok := v.(obsv.HistogramSnapshot); ok {
				v = histogramJSON{hs.Count, hs.Sum.Seconds(), hs.Quantile(0.5).Seconds(), hs.Quantile(0.99).Seconds()}
			}
			var path []string
			for _, l := range s.labels {
				if l != "" {
					path = append(path, l)
				}
			}
			if len(path) == 0 {
				root = v
				continue
			}
			m, _ := root.(map[string]any)
			if m == nil {
				m = map[string]any{}
				root = m
			}
			for _, l := range path[:len(path)-1] {
				next, _ := m[l].(map[string]any)
				if next == nil {
					next = map[string]any{}
					m[l] = next
				}
				m = next
			}
			m[path[len(path)-1]] = v
		}
		if root != nil {
			out = append(out, member{ins.name, root})
		}
	}
	return out
}

// object is a JSON object whose members keep their order.
type object []member

type member struct {
	key string
	val any
}

// MarshalJSON implements json.Marshaler.
func (o object) MarshalJSON() ([]byte, error) {
	b := []byte{'{'}
	for i, m := range o {
		if i > 0 {
			b = append(b, ',')
		}
		k, err := json.Marshal(m.key)
		if err != nil {
			return nil, err
		}
		v, err := json.Marshal(m.val)
		if err != nil {
			return nil, err
		}
		b = append(append(append(b, k...), ':'), v...)
	}
	return append(b, '}'), nil
}
