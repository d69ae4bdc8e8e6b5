// Package httpserve exposes a fitted Schemble deployment over HTTP with a
// small JSON API, the transport stand-in for the paper's "queries are sent
// to the server through RPC":
//
//	POST /v1/predict    {"sample_id": 17, "deadline_ms": 150}
//	                 -> {"probs": [...], "subset": [0,2], "latency_ms": 93.1}
//	POST /v1/difficulty {"features": [ ... ]}
//	                 -> {"score": 0.34}
//	GET  /v1/stats      -> served/missed counters and mean subset size
//	GET  /v1/health     -> per-model breaker/fault health, "ok"|"degraded"
//	GET  /v1/healthz    -> 200 "ok" (liveness only)
//	GET  /v1/metrics    -> Prometheus text exposition (counters, gauges,
//	                       per-outcome latency histograms)
//	GET  /v1/trace?last=N -> the N most recent decision traces (JSON;
//	                       requires the runtime's trace buffer)
//
// Predict returns 200 for served, degraded and missed outcomes; a request
// the runtime explicitly sheds (saturation, drain) returns 503 with a
// Retry-After hint so load balancers can back off.
//
// Requests reference samples by ID in the deployment's serving pool (the
// simulator owns the inputs; a production system would carry the payload
// itself). The handler drives the concurrent serve.Server underneath, so
// HTTP requests experience real scheduling, queueing and deadlines.
package httpserve

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"schemble/internal/dataset"
	"schemble/internal/discrepancy"
	"schemble/internal/obsv"
	"schemble/internal/serve"
)

// PredictRequest asks for one ensemble inference.
type PredictRequest struct {
	// SampleID selects the input from the serving pool.
	SampleID int `json:"sample_id"`
	// DeadlineMS is the relative deadline in (virtual) milliseconds; when
	// omitted and Class names a configured request class, the class's
	// deadline applies.
	DeadlineMS float64 `json:"deadline_ms"`
	// Class selects the request class (admission priority, default
	// deadline). The X-Schemble-Class header overrides it. Unknown or
	// empty names fall back to the configured default class; ignored on
	// classless deployments.
	Class string `json:"class,omitempty"`
}

// PredictResponse is the inference outcome.
type PredictResponse struct {
	Missed bool `json:"missed"`
	// Rejected marks requests the runtime explicitly refused (queue
	// saturation, draining) rather than served late; Rejected implies
	// Missed.
	Rejected bool `json:"rejected,omitempty"`
	// Degraded marks requests served from a partial ensemble: some subset
	// models failed or were still running at the deadline, and the output
	// aggregates the models that completed (listed in Subset).
	Degraded bool `json:"degraded,omitempty"`
	// Cached marks answers served from the result cache without any model
	// execution; Subset names the models that produced the cached answer.
	Cached    bool      `json:"cached,omitempty"`
	Probs     []float64 `json:"probs,omitempty"`
	Value     float64   `json:"value,omitempty"`
	Subset    []int     `json:"subset,omitempty"`
	LatencyMS float64   `json:"latency_ms"`
}

// DifficultyRequest asks for a discrepancy-score estimate from raw
// features.
type DifficultyRequest struct {
	Features []float64 `json:"features"`
}

// DifficultyResponse carries the estimate.
type DifficultyResponse struct {
	Score float64 `json:"score"`
}

// Stats is the running counters snapshot, including the serving runtime's
// own health gauges.
type Stats struct {
	Served         int          `json:"served"`
	Degraded       int          `json:"degraded"`
	Missed         int          `json:"missed"`
	Rejected       int          `json:"rejected"`
	Canceled       int          `json:"canceled,omitempty"`
	MeanSubsetSize float64      `json:"mean_subset_size"`
	MeanLatencyMS  float64      `json:"mean_latency_ms"`
	Runtime        RuntimeStats `json:"runtime"`
}

// RuntimeStats mirrors serve.Stats for the JSON API: lifecycle counters
// plus instantaneous backlog gauges and per-model fault health.
type RuntimeStats struct {
	Submitted  uint64 `json:"submitted"`
	Served     uint64 `json:"served"`
	Degraded   uint64 `json:"degraded"`
	Missed     uint64 `json:"missed"`
	Rejected   uint64 `json:"rejected"`
	Resolved   uint64 `json:"resolved"`
	Buffered   int    `json:"buffered"`
	InFlight   int    `json:"in_flight"`
	QueueDepth []int  `json:"queue_depth"`
	// Replicas[k] is model k's replica-pool size; ReplicaBusy[k][r] is 1
	// while replica r holds a task whose completion is not reported yet (so
	// QueueDepth[k] plus the sum of ReplicaBusy[k] covers every outstanding
	// task exactly once), 0 when it is idle.
	Replicas    []int         `json:"replicas"`
	ReplicaBusy [][]int       `json:"replica_busy"`
	Models      []ModelHealth `json:"models"`
	Draining    bool          `json:"draining"`
	// Load is the admission controller's smoothed pressure estimate (~1 at
	// the target backlog); Ladder/LadderState describe the degradation
	// rung; Classes carries per-class outcome counters and SLO attainment
	// (omitted on classless deployments).
	Load        float64      `json:"load"`
	Ladder      int          `json:"ladder"`
	LadderState string       `json:"ladder_state"`
	Classes     []ClassStats `json:"classes,omitempty"`
	// TurnEventsP50/P99 are quantiles of how many events a coordinator turn
	// handled before its one planning pass (above one: events queued while
	// the turn before was planning), PassUSP50/P99 of that pass's wall time.
	TurnEventsP50 float64 `json:"turn_events_p50"`
	TurnEventsP99 float64 `json:"turn_events_p99"`
	PassUSP50     float64 `json:"pass_us_p50"`
	PassUSP99     float64 `json:"pass_us_p99"`
	// Cache carries the result-cache counters; omitted when no cache is
	// configured.
	Cache *CacheStats `json:"cache,omitempty"`
	// Adapt carries the online-adaptation snapshot (live latency
	// profiles and drift state); omitted when
	// adaptation is off.
	Adapt *AdaptStats `json:"adapt,omitempty"`
}

// CacheStats mirrors rcache.Snapshot for the JSON API.
type CacheStats struct {
	Entries     int     `json:"entries"`
	Capacity    int     `json:"capacity"`
	Hits        uint64  `json:"hits"`
	Misses      uint64  `json:"misses"`
	Bypasses    uint64  `json:"bypasses"`
	Fills       uint64  `json:"fills"`
	Evictions   uint64  `json:"evictions"`
	Expirations uint64  `json:"expirations"`
	HitRate     float64 `json:"hit_rate"`
}

// AdaptStats mirrors adapt.Snapshot for the JSON API. Durations are
// microseconds, matching the trace wire convention.
type AdaptStats struct {
	Models        []AdaptModelStats `json:"models"`
	ScoreDrift    bool              `json:"score_drift"`
	BaselineScore float64           `json:"baseline_score"`
	LatencyEvents uint64            `json:"latency_events"`
	ScoreEvents   uint64            `json:"score_events"`
}

// AdaptModelStats is one model's live latency profile: observed quantiles
// against the frozen profiling mean, the inflation factor the scheduler's
// cost vector and the hedging threshold consume, and whether the drift
// detector currently flags the model.
type AdaptModelStats struct {
	Name           string  `json:"name"`
	Samples        uint64  `json:"samples"`
	MeanUS         int64   `json:"mean_us"`
	P50US          int64   `json:"p50_us"`
	P90US          int64   `json:"p90_us"`
	P99US          int64   `json:"p99_us"`
	ProfiledMeanUS int64   `json:"profiled_mean_us"`
	Inflation      float64 `json:"inflation"`
	Drift          bool    `json:"drift"`
}

// ClassStats mirrors serve.ClassStats for the JSON API.
type ClassStats struct {
	Name          string  `json:"name"`
	Priority      int     `json:"priority"`
	Weight        float64 `json:"weight"`
	Level         string  `json:"level"`
	Submitted     uint64  `json:"submitted"`
	Served        uint64  `json:"served"`
	Degraded      uint64  `json:"degraded"`
	Missed        uint64  `json:"missed"`
	Rejected      uint64  `json:"rejected"`
	Shed          uint64  `json:"shed"`
	Cached        uint64  `json:"cached"`
	SLOAttainment float64 `json:"slo_attainment"`
}

// ModelHealth mirrors serve.ModelHealth for the JSON API.
type ModelHealth struct {
	Name       string `json:"name"`
	Breaker    string `json:"breaker"`
	ConsecFail int    `json:"consecutive_failures,omitempty"`
	Trips      uint64 `json:"breaker_trips,omitempty"`
	Down       bool   `json:"down,omitempty"`
	Executed   uint64 `json:"executed"`
	Failures   uint64 `json:"failures,omitempty"`
	Transient  uint64 `json:"transient,omitempty"`
	Stragglers uint64 `json:"stragglers,omitempty"`
	Crashes    uint64 `json:"crashes,omitempty"`
	Timeouts   uint64 `json:"timeouts,omitempty"`
	Panics     uint64 `json:"panics,omitempty"`
	Retries    uint64 `json:"retries,omitempty"`
	Hedges     uint64 `json:"hedges,omitempty"`
	HedgeWins  uint64 `json:"hedge_wins,omitempty"`
	// BacklogSeconds is the work committed to the model and not yet
	// drained, in virtual seconds averaged over its replicas, as the last
	// planning pass fed it to the overload controller: the per-model term
	// of "load".
	BacklogSeconds float64 `json:"backlog_seconds"`
	// TimerOvershootUSP50/P99 are quantiles of the wall time by which a
	// completed model wait outlasted the duration it was asked for — the
	// runtime's own reading of the bench's serve.timer_overshoot_us.
	TimerOvershootUSP50 float64 `json:"timer_overshoot_us_p50"`
	TimerOvershootUSP99 float64 `json:"timer_overshoot_us_p99"`
	// StarvedCount counts the waits a replica of the model sat idle
	// through while queries waited in the buffer, and StarvedUSP50/P99 are
	// quantiles of their wall time — the runtime's own reading of the
	// idle-while-waiting gaps the bench trace shows from outside.
	StarvedCount uint64  `json:"starved_count"`
	StarvedUSP50 float64 `json:"starved_us_p50"`
	StarvedUSP99 float64 `json:"starved_us_p99"`
	// ReplicaExecuted/ReplicaFailures break Executed and Failures down by
	// replica within the model's pool.
	ReplicaExecuted []uint64 `json:"replica_executed,omitempty"`
	ReplicaFailures []uint64 `json:"replica_failures,omitempty"`
}

// HealthResponse is the /v1/health report: "ok" when every model is
// schedulable, "degraded" when a breaker is open or a model is down.
type HealthResponse struct {
	Status   string        `json:"status"`
	Draining bool          `json:"draining,omitempty"`
	Models   []ModelHealth `json:"models"`
}

// Handler serves the API. Construct with New, wire into any http.Server,
// and Close when done.
type Handler struct {
	srv       *serve.Server
	estimator discrepancy.ScoreEstimator
	pool      []*dataset.Sample
	byID      map[int]*dataset.Sample
	featDim   int
	cancel    context.CancelFunc

	mux sync.Mutex
	st  struct {
		served, degraded, missed, rejected int
		// canceled counts requests whose client disconnected before the
		// runtime resolved them; their outcome is still recorded above.
		canceled int
		sizeSum  int
		latSum   time.Duration
	}
}

// Config configures New.
type Config struct {
	// Server is the started-or-startable concurrent runtime.
	Server *serve.Server
	// Estimator answers /v1/difficulty (optional).
	Estimator discrepancy.ScoreEstimator
	// Pool is the serving pool /v1/predict draws samples from.
	Pool []*dataset.Sample
}

// New builds the handler and starts the underlying server.
func New(cfg Config) *Handler {
	if cfg.Server == nil || len(cfg.Pool) == 0 {
		panic("httpserve: Server and Pool are required")
	}
	h := &Handler{
		srv:       cfg.Server,
		estimator: cfg.Estimator,
		pool:      cfg.Pool,
		byID:      make(map[int]*dataset.Sample, len(cfg.Pool)),
		featDim:   len(cfg.Pool[0].Features),
	}
	for _, s := range cfg.Pool {
		h.byID[s.ID] = s
	}
	ctx, cancel := context.WithCancel(context.Background())
	h.cancel = cancel
	h.srv.Start(ctx)
	return h
}

// Close drains the underlying server: committed work finishes (bounded by
// a grace period), then the runtime stops.
func (h *Handler) Close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = h.srv.Drain(ctx)
	h.cancel()
	h.srv.Stop()
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == "/v1/healthz" && r.Method == http.MethodGet:
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	case r.URL.Path == "/v1/predict" && r.Method == http.MethodPost:
		h.handlePredict(w, r)
	case r.URL.Path == "/v1/difficulty" && r.Method == http.MethodPost:
		h.handleDifficulty(w, r)
	case r.URL.Path == "/v1/stats" && r.Method == http.MethodGet:
		h.handleStats(w)
	case r.URL.Path == "/v1/health" && r.Method == http.MethodGet:
		h.handleHealth(w)
	case r.URL.Path == "/v1/metrics" && r.Method == http.MethodGet:
		h.handleMetrics(w)
	case r.URL.Path == "/v1/trace" && r.Method == http.MethodGet:
		h.handleTrace(w, r)
	default:
		http.Error(w, "not found", http.StatusNotFound)
	}
}

func (h *Handler) handlePredict(w http.ResponseWriter, r *http.Request) {
	var req PredictRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	sample, ok := h.byID[req.SampleID]
	if !ok {
		http.Error(w, fmt.Sprintf("unknown sample id %d", req.SampleID), http.StatusNotFound)
		return
	}
	class := req.Class
	if hd := r.Header.Get("X-Schemble-Class"); hd != "" {
		class = hd
	}
	// A missing deadline is an error only when nothing can default it: on
	// classed deployments even an empty class resolves to the default
	// class and inherits its deadline.
	if req.DeadlineMS < 0 || (req.DeadlineMS <= 0 && class == "" && !h.srv.Classed()) {
		http.Error(w, "deadline_ms must be positive", http.StatusBadRequest)
		return
	}
	deadline := time.Duration(req.DeadlineMS * float64(time.Millisecond))
	ch := h.srv.SubmitClass(sample, deadline, class)
	var res serve.Result
	select {
	case res = <-ch:
	case <-r.Context().Done():
		// Client disconnected mid-flight. The runtime still resolves the
		// request (exactly once), so collect its outcome in the background
		// for truthful accounting — but never write to the dead connection.
		go func() {
			h.recordOutcome(<-ch, true)
		}()
		return
	}
	h.recordOutcome(res, false)

	resp := PredictResponse{
		Missed:    res.Missed,
		Rejected:  res.Rejected,
		Degraded:  res.Degraded,
		Cached:    res.Cached,
		LatencyMS: float64(res.Latency) / float64(time.Millisecond),
	}
	if !res.Missed {
		resp.Probs = res.Output.Probs
		resp.Value = res.Output.Value
		resp.Subset = res.Subset.Models()
	}
	if res.Rejected {
		// Load shedding, not a scheduling miss: tell clients and load
		// balancers to back off and retry elsewhere or later. The hint is
		// derived from the admission controller's load estimate, so it
		// grows with the backlog instead of hammering an overloaded server
		// with fixed 1s retries.
		w.Header().Set("Retry-After", strconv.Itoa(h.srv.RetryAfterSeconds()))
		writeJSONStatus(w, http.StatusServiceUnavailable, resp)
		return
	}
	writeJSON(w, resp)
}

// recordOutcome folds one resolved request into the handler's counters.
// canceled marks requests whose client went away before resolution.
func (h *Handler) recordOutcome(res serve.Result, canceled bool) {
	h.mux.Lock()
	defer h.mux.Unlock()
	if canceled {
		h.st.canceled++
	}
	switch {
	case res.Rejected:
		h.st.rejected++
	case res.Missed:
		h.st.missed++
	case res.Degraded:
		h.st.degraded++
		h.st.sizeSum += res.Subset.Size()
		h.st.latSum += res.Latency
	default:
		h.st.served++
		h.st.sizeSum += res.Subset.Size()
		h.st.latSum += res.Latency
	}
}

func (h *Handler) handleDifficulty(w http.ResponseWriter, r *http.Request) {
	if h.estimator == nil {
		http.Error(w, "no estimator configured", http.StatusNotImplemented)
		return
	}
	var req DifficultyRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(req.Features) != h.featDim {
		http.Error(w, fmt.Sprintf("features must have dimension %d", h.featDim), http.StatusBadRequest)
		return
	}
	score := h.estimator.Predict(&dataset.Sample{Features: req.Features})
	writeJSON(w, DifficultyResponse{Score: score})
}

func (h *Handler) handleStats(w http.ResponseWriter) {
	h.mux.Lock()
	st := h.st
	h.mux.Unlock()
	out := Stats{Served: st.served, Degraded: st.degraded, Missed: st.missed,
		Rejected: st.rejected, Canceled: st.canceled}
	if done := st.served + st.degraded; done > 0 {
		out.MeanSubsetSize = float64(st.sizeSum) / float64(done)
		out.MeanLatencyMS = float64(st.latSum) / float64(done) / float64(time.Millisecond)
	}
	rt := h.srv.Stats()
	out.Runtime = RuntimeStats{
		Submitted:   rt.Submitted,
		Served:      rt.Served,
		Degraded:    rt.Degraded,
		Missed:      rt.Missed,
		Rejected:    rt.Rejected,
		Resolved:    rt.Resolved,
		Buffered:    rt.Buffered,
		InFlight:    rt.InFlight,
		QueueDepth:  rt.QueueDepth,
		Replicas:    rt.Replicas,
		ReplicaBusy: rt.ReplicaBusy,
		Models:      modelHealth(rt),
		Draining:    rt.Draining,
		Load:        rt.Load,
		Ladder:      rt.Ladder,
		LadderState: rt.LadderState,
		Classes:     classStats(rt),
		Cache:       cacheStats(rt),
		Adapt:       adaptStats(rt),

		// One event is one second of the TurnEvents histogram, and a count
		// is whole: round the bucket interpolation up.
		TurnEventsP50: math.Ceil(rt.TurnEvents.Quantile(0.5).Seconds()),
		TurnEventsP99: math.Ceil(rt.TurnEvents.Quantile(0.99).Seconds()),
		PassUSP50:     quantileUS(rt.PassTime, 0.5),
		PassUSP99:     quantileUS(rt.PassTime, 0.99),
	}
	writeJSON(w, out)
}

// cacheStats converts the runtime's result-cache snapshot to the JSON
// shape; nil when no cache is configured.
func cacheStats(rt serve.Stats) *CacheStats {
	c := rt.Cache
	if c == nil {
		return nil
	}
	return &CacheStats{
		Entries:     c.Entries,
		Capacity:    c.Capacity,
		Hits:        c.Hits,
		Misses:      c.Misses,
		Bypasses:    c.Bypasses,
		Fills:       c.Fills,
		Evictions:   c.Evictions,
		Expirations: c.Expirations,
		HitRate:     c.HitRate,
	}
}

// adaptStats converts the runtime's adaptation snapshot to the JSON
// shape; nil when adaptation is off.
func adaptStats(rt serve.Stats) *AdaptStats {
	a := rt.Adapt
	if a == nil {
		return nil
	}
	out := &AdaptStats{
		Models:        make([]AdaptModelStats, len(a.Models)),
		ScoreDrift:    a.ScoreDrift,
		BaselineScore: a.BaselineScore,
		LatencyEvents: a.LatencyEvents,
		ScoreEvents:   a.ScoreEvents,
	}
	for k, m := range a.Models {
		name := ""
		if k < len(rt.Models) {
			name = rt.Models[k].Name
		}
		out.Models[k] = AdaptModelStats{
			Name:           name,
			Samples:        m.Samples,
			MeanUS:         m.Mean.Microseconds(),
			P50US:          m.P50.Microseconds(),
			P90US:          m.P90.Microseconds(),
			P99US:          m.P99.Microseconds(),
			ProfiledMeanUS: m.ProfiledMean.Microseconds(),
			Inflation:      m.Inflation,
			Drift:          m.Drift,
		}
	}
	return out
}

// classStats converts the runtime's per-class snapshot to the JSON shape.
func classStats(rt serve.Stats) []ClassStats {
	if len(rt.Classes) == 0 {
		return nil
	}
	out := make([]ClassStats, len(rt.Classes))
	for i, c := range rt.Classes {
		out[i] = ClassStats{
			Name:          c.Name,
			Priority:      c.Priority,
			Weight:        c.Weight,
			Level:         c.Level,
			Submitted:     c.Submitted,
			Served:        c.Served,
			Degraded:      c.Degraded,
			Missed:        c.Missed,
			Rejected:      c.Rejected,
			Shed:          c.Shed,
			Cached:        c.Cached,
			SLOAttainment: c.SLOAttainment,
		}
	}
	return out
}

// quantileUS is a histogram's q-th quantile in microseconds, the JSON API's
// unit for wall-clock instruments.
func quantileUS(h obsv.HistogramSnapshot, q float64) float64 {
	return float64(h.Quantile(q)) / float64(time.Microsecond)
}

// modelHealth converts the runtime's per-model snapshot to the JSON shape.
func modelHealth(rt serve.Stats) []ModelHealth {
	out := make([]ModelHealth, len(rt.Models))
	for k, m := range rt.Models {
		out[k] = ModelHealth{
			Name:       m.Name,
			Breaker:    m.Breaker,
			ConsecFail: m.ConsecutiveFailures,
			Trips:      m.BreakerTrips,
			Down:       m.Down,
			Executed:   m.Executed,
			Failures:   m.Failures,
			Transient:  m.Transient,
			Stragglers: m.Stragglers,
			Crashes:    m.Crashes,
			Timeouts:   m.Timeouts,
			Panics:     m.Panics,
			Retries:    m.Retries,
			Hedges:     m.Hedges,
			HedgeWins:  m.HedgeWins,

			BacklogSeconds:      m.BacklogSeconds,
			TimerOvershootUSP50: quantileUS(m.TimerOvershoot, 0.5),
			TimerOvershootUSP99: quantileUS(m.TimerOvershoot, 0.99),
			StarvedCount:        m.Starved.Count,
			StarvedUSP50:        quantileUS(m.Starved, 0.5),
			StarvedUSP99:        quantileUS(m.Starved, 0.99),
		}
		if len(m.ReplicaExecuted) > 1 {
			// Single-replica pools collapse to the model-level counters;
			// only real pools carry the per-replica breakdown.
			out[k].ReplicaExecuted = m.ReplicaExecuted
			out[k].ReplicaFailures = m.ReplicaFailures
		}
	}
	return out
}

// handleHealth reports per-model schedulability: "degraded" while any
// breaker is open or any model sits in a crash-recovery window. Always
// HTTP 200 — /v1/healthz remains the liveness probe.
func (h *Handler) handleHealth(w http.ResponseWriter) {
	rt := h.srv.Stats()
	status := "ok"
	if !rt.Healthy() {
		status = "degraded"
	}
	writeJSON(w, HealthResponse{
		Status:   status,
		Draining: rt.Draining,
		Models:   modelHealth(rt),
	})
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// writeJSONStatus writes a JSON body under a non-200 status code.
func writeJSONStatus(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}
