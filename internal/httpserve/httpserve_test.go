package httpserve

import (
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"schemble/internal/core"
	"schemble/internal/dataset"
	"schemble/internal/model"
	"schemble/internal/pipeline"
	"schemble/internal/serve"
)

var (
	artOnce sync.Once
	art     *pipeline.Artifacts
)

func artifacts(t testing.TB) *pipeline.Artifacts {
	t.Helper()
	artOnce.Do(func() {
		ds := dataset.TextMatching(dataset.Config{N: 900, Seed: 88})
		art = pipeline.Build(pipeline.Config{
			Dataset: ds, Models: model.TextMatchingModels(88),
			PredictorEpochs: 15, Seed: 88,
		})
	})
	return art
}

// startServer spins up the full HTTP stack over an httptest server.
func startServer(t *testing.T) (*Client, *Handler, *pipeline.Artifacts) {
	t.Helper()
	a := artifacts(t)
	h := New(Config{
		Server: serve.New(serve.Config{
			Ensemble:  a.Ensemble,
			Scheduler: &core.DP{Delta: 0.01},
			Rewarder:  a.Profile,
			Estimator: a.Predictor,
			TimeScale: 0.05,
			Seed:      1,
		}),
		Estimator: a.Predictor,
		Pool:      a.Serve,
	})
	ts := httptest.NewServer(h)
	t.Cleanup(func() {
		ts.Close()
		h.Close()
	})
	return NewClient(ts.URL), h, a
}

func TestPredictEndToEnd(t *testing.T) {
	c, _, a := startServer(t)
	if !c.Healthy() {
		t.Fatal("health check failed")
	}
	s := a.Serve[3]
	resp, err := c.Predict(s.ID, 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Missed {
		t.Fatal("uncontended request missed")
	}
	if len(resp.Probs) != 2 {
		t.Fatalf("probs = %v", resp.Probs)
	}
	if len(resp.Subset) == 0 {
		t.Error("no subset reported")
	}
	if resp.LatencyMS <= 0 {
		t.Error("no latency reported")
	}
}

func TestDifficultyEndpoint(t *testing.T) {
	c, _, a := startServer(t)
	score, err := c.Difficulty(a.Serve[0].Features)
	if err != nil {
		t.Fatal(err)
	}
	if score < 0 || score > 1 {
		t.Errorf("score out of range: %v", score)
	}
	want := a.Predictor.Predict(a.Serve[0])
	if score != want {
		t.Errorf("endpoint score %v != direct prediction %v", score, want)
	}
	// Wrong dimension is rejected.
	if _, err := c.Difficulty([]float64{1, 2}); err == nil ||
		!strings.Contains(err.Error(), "dimension") {
		t.Errorf("dimension mismatch not rejected: %v", err)
	}
}

func TestStatsAccumulate(t *testing.T) {
	c, _, a := startServer(t)
	for i := 0; i < 5; i++ {
		if _, err := c.Predict(a.Serve[i].ID, 500*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Served+st.Degraded+st.Missed+st.Rejected != 5 {
		t.Errorf("stats count %d+%d+%d+%d, want 5", st.Served, st.Degraded, st.Missed, st.Rejected)
	}
	if st.Served > 0 && (st.MeanSubsetSize < 1 || st.MeanLatencyMS <= 0) {
		t.Errorf("stats incomplete: %+v", st)
	}
	// The runtime snapshot rides along: 5 requests submitted, all
	// resolved, nothing left in flight.
	rt := st.Runtime
	resolved := num(t, rt, "schemble_resolved_total")
	if num(t, rt, "submitted") != 5 || resolved != 5 {
		t.Errorf("runtime counters submitted=%v resolved=%v, want 5/5", num(t, rt, "submitted"), resolved)
	}
	if num(t, rt, "served")+num(t, rt, "degraded")+num(t, rt, "missed")+num(t, rt, "rejected") != resolved {
		t.Errorf("runtime counter identity broken: %v", rt)
	}
	if num(t, rt, "schemble_buffered") != 0 || num(t, rt, "schemble_inflight") != 0 || num(t, rt, "schemble_draining") != 0 {
		t.Errorf("idle runtime reports backlog: %v", rt)
	}
	if len(branch(t, rt, "schemble_model_queue_depth")) == 0 {
		t.Error("runtime snapshot missing queue depths")
	}
}

func TestErrorPaths(t *testing.T) {
	c, _, _ := startServer(t)
	if _, err := c.Predict(999999, 100*time.Millisecond); err == nil {
		t.Error("unknown sample not rejected")
	}
	if _, err := c.Predict(0, -5*time.Millisecond); err == nil {
		t.Error("negative deadline not rejected")
	}
	// Unknown path.
	r, err := c.HTTPClient.Get(c.BaseURL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != 404 {
		t.Errorf("unknown path status %d", r.StatusCode)
	}
	// Wrong method.
	r, err = c.HTTPClient.Get(c.BaseURL + "/v1/predict")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != 404 {
		t.Errorf("GET predict status %d", r.StatusCode)
	}
}

func TestConcurrentClients(t *testing.T) {
	c, _, a := startServer(t)
	var wg sync.WaitGroup
	errs := make(chan error, 20)
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := c.Predict(a.Serve[i%10].ID, time.Second); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	// A request the deadline catches with part of its subset answered is
	// served degraded.
	if st.Served+st.Degraded+st.Missed != 20 {
		t.Errorf("served %d + degraded %d + missed %d, want 20", st.Served, st.Degraded, st.Missed)
	}
}

// TestHealthEndpoint checks /v1/health on a fault-free server: status ok,
// every model listed, breakers reported "closed".
func TestHealthEndpoint(t *testing.T) {
	c, _, a := startServer(t)
	hr, err := c.Health()
	if err != nil {
		t.Fatal(err)
	}
	if hr.Status != "ok" {
		t.Errorf("status = %q, want ok", hr.Status)
	}
	if hr.Draining {
		t.Error("fresh server reports draining")
	}
	executed := branch(t, hr.Models, "schemble_model_executed_total")
	if len(executed) != a.Ensemble.M() {
		t.Fatalf("health lists %d models, want %d", len(executed), a.Ensemble.M())
	}
	for name := range executed {
		if name == "" {
			t.Error("model health entry missing name")
		}
		if state := branch(t, hr.Models, "schemble_model_breaker_state", name); num(t, state, "closed") != 1 {
			t.Errorf("model %s breaker = %v, want closed", name, state)
		}
		if num(t, hr.Models, "schemble_model_down", name) != 0 || num(t, hr.Models, "schemble_model_failures_total", name) != 0 {
			t.Errorf("fault-free model %s reports faults: %v", name, hr.Models)
		}
	}
}

// startChaosServer builds the HTTP stack over a fault-injected runtime.
func startChaosServer(t *testing.T) (*Client, *pipeline.Artifacts) {
	t.Helper()
	a := artifacts(t)
	h := New(Config{
		Server: serve.New(serve.Config{
			Ensemble:  a.Ensemble,
			Scheduler: &core.DP{Delta: 0.01},
			Rewarder:  a.Profile,
			Estimator: a.Predictor,
			TimeScale: 0.05,
			Seed:      1,
			Faults: model.FaultConfig{
				TransientRate: 0.25,
				StragglerRate: 0.2,
				CrashMTBF:     4 * time.Second,
				Seed:          7,
			},
		}),
		Estimator: a.Predictor,
		Pool:      a.Serve,
	})
	ts := httptest.NewServer(h)
	t.Cleanup(func() {
		ts.Close()
		h.Close()
	})
	return NewClient(ts.URL), a
}

// TestChaosServerHealthAndStats drives traffic through a fault-injected
// server and checks the degraded counter and per-model fault telemetry
// surface through /v1/stats and /v1/health.
func TestChaosServerHealthAndStats(t *testing.T) {
	c, a := startChaosServer(t)
	for i := 0; i < 40; i++ {
		if _, err := c.Predict(a.Serve[i%len(a.Serve)].ID, time.Second); err != nil {
			t.Fatal(err)
		}
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Served + st.Degraded + st.Missed + st.Rejected; got != 40 {
		t.Errorf("handler counters sum to %d, want 40: %+v", got, st)
	}
	rt := st.Runtime
	if num(t, rt, "served")+num(t, rt, "degraded")+num(t, rt, "missed")+num(t, rt, "rejected") != num(t, rt, "schemble_resolved_total") {
		t.Errorf("runtime counter identity broken: %v", rt)
	}
	if float64(st.Degraded) != num(t, rt, "degraded") {
		t.Errorf("handler degraded %d != runtime degraded %v", st.Degraded, num(t, rt, "degraded"))
	}
	executed := branch(t, rt, "schemble_model_executed_total")
	if len(executed) != a.Ensemble.M() {
		t.Fatalf("runtime stats list %d models, want %d", len(executed), a.Ensemble.M())
	}
	var faults float64
	for name := range executed {
		for _, family := range []string{"schemble_model_transient_faults_total", "schemble_model_stragglers_total",
			"schemble_model_crashes_total", "schemble_model_timeouts_total"} {
			faults += num(t, rt, family, name)
		}
	}
	if faults == 0 {
		t.Error("40 requests at 25%/20% fault rates injected nothing")
	}
	hr, err := c.Health()
	if err != nil {
		t.Fatal(err)
	}
	if hr.Status != "ok" && hr.Status != "degraded" {
		t.Errorf("health status = %q", hr.Status)
	}
	if n := len(branch(t, hr.Models, "schemble_model_executed_total")); n != a.Ensemble.M() {
		t.Errorf("health lists %d models, want %d", n, a.Ensemble.M())
	}
}
