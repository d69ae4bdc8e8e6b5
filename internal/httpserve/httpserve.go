// Package httpserve exposes a fitted Schemble deployment over HTTP with a
// small JSON API, the transport stand-in for the paper's "queries are sent
// to the server through RPC":
//
//	POST /v1/predict    {"sample_id": 17, "deadline_ms": 150}
//	                 -> {"probs": [...], "subset": [0,2], "latency_ms": 93.1}
//	POST /v1/difficulty {"features": [ ... ]}
//	                 -> {"score": 0.34}
//	GET  /v1/stats      -> the handler's outcome counters and mean subset
//	                       size; under "runtime", every instrument by name
//	GET  /v1/health     -> "ok"|"degraded" and every per-model instrument
//	GET  /v1/healthz    -> 200 "ok" (liveness only)
//	GET  /v1/metrics    -> Prometheus text exposition of the instruments
//	                       (metrics.go's table, one row per family)
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

// Stats is the /v1/stats report: the handler's own outcome counters, and
// under Runtime the runtime's — its lifecycle counters, then every
// instrument under its /v1/metrics family name.
type Stats struct {
	Served         int     `json:"served"`
	Degraded       int     `json:"degraded"`
	Missed         int     `json:"missed"`
	Rejected       int     `json:"rejected"`
	Canceled       int     `json:"canceled,omitempty"`
	MeanSubsetSize float64 `json:"mean_subset_size"`
	MeanLatencyMS  float64 `json:"mean_latency_ms"`
	Runtime        object  `json:"runtime"`
}

// HealthResponse is the /v1/health report: "ok" when every model is
// schedulable, "degraded" when a breaker is open or a model is down. Models
// carries every per-model instrument under its /v1/metrics family name.
type HealthResponse struct {
	Status   string `json:"status"`
	Draining bool   `json:"draining,omitempty"`
	Models   object `json:"models"`
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
	st  counters
}

// counters are the handler's own outcome tallies behind /v1/stats's
// top-level fields.
type counters struct {
	served, degraded, missed, rejected int
	// canceled counts requests whose client disconnected before the
	// runtime resolved them; their outcome is still recorded above.
	canceled int
	sizeSum  int
	latSum   time.Duration
}

// input is what the /v1/metrics, /v1/stats and /v1/health renderers read:
// the runtime's snapshot and, when the runtime has an observer, the
// observer's.
type input struct {
	rt       serve.Stats
	obs      obsv.Snapshot
	observed bool
}

// input snapshots the runtime and its observer for one render.
func (h *Handler) input() input {
	obs := h.srv.Observer()
	return input{rt: h.srv.Stats(), obs: obs.Snapshot(), observed: obs != nil}
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
	writeJSON(w, stats(st, h.input()))
}

// stats renders /v1/stats: the handler's own counters and the runtime's.
func stats(st counters, in input) Stats {
	out := Stats{Served: st.served, Degraded: st.degraded, Missed: st.missed,
		Rejected: st.rejected, Canceled: st.canceled}
	if done := st.served + st.degraded; done > 0 {
		out.MeanSubsetSize = float64(st.sizeSum) / float64(done)
		out.MeanLatencyMS = float64(st.latSum) / float64(done) / float64(time.Millisecond)
	}
	rt := in.rt
	out.Runtime = append(object{
		{"submitted", rt.Submitted},
		{"served", rt.Served},
		{"degraded", rt.Degraded},
		{"missed", rt.Missed},
		{"rejected", rt.Rejected},
	}, tree(in, func(instrument) bool { return true })...)
	return out
}

// handleHealth reports per-model schedulability: "degraded" while any
// breaker is open or any model sits in a crash-recovery window. Always
// HTTP 200 — /v1/healthz remains the liveness probe.
func (h *Handler) handleHealth(w http.ResponseWriter) {
	writeJSON(w, health(h.input()))
}

// health renders /v1/health.
func health(in input) HealthResponse {
	rt := in.rt
	status := "ok"
	if !rt.Healthy() {
		status = "degraded"
	}
	return HealthResponse{
		Status:   status,
		Draining: rt.Draining,
		Models:   tree(in, func(ins instrument) bool { return len(ins.labels) > 0 && ins.labels[0] == "model" }),
	}
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
