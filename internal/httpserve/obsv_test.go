package httpserve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"schemble/internal/testutil"

	"schemble/internal/core"
	"schemble/internal/metrics"
	"schemble/internal/obsv"
	"schemble/internal/pipeline"
	"schemble/internal/serve"
)

// startObsServer spins up the HTTP stack over a runtime with decision
// tracing enabled.
func startObsServer(t *testing.T) (*Client, *Handler, *pipeline.Artifacts) {
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
			Obs:       obsv.Config{TraceBuffer: 256},
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

// TestPredictRejectedReturns503 drains the runtime so every new request is
// shed, then checks shedding is visible on the wire: HTTP 503 with a
// Retry-After hint and a JSON body carrying Rejected, which the typed
// client surfaces without error. The decision trace converts to a
// serving-log record whose summary reports RejectedRate, not DMR.
func TestPredictRejectedReturns503(t *testing.T) {
	c, h, a := startObsServer(t)
	if err := h.srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Raw request first: status code and headers.
	body, _ := json.Marshal(PredictRequest{SampleID: a.Serve[0].ID, DeadlineMS: 500})
	r, err := c.HTTPClient.Post(c.BaseURL+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", r.StatusCode)
	}
	if r.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After hint")
	}
	var pr PredictResponse
	if err := json.NewDecoder(r.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	if !pr.Rejected || !pr.Missed {
		t.Errorf("503 body = %+v, want rejected+missed", pr)
	}
	// Typed client: a shed request is data, not an error.
	resp, err := c.Predict(a.Serve[1].ID, 500*time.Millisecond)
	if err != nil {
		t.Fatalf("client treats 503 as transport error: %v", err)
	}
	if !resp.Rejected {
		t.Errorf("client response = %+v, want rejected", resp)
	}
	// Taxonomy end to end: traces -> serving-log records -> Summary.
	tr, err := c.Traces(10)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Enabled || len(tr.Traces) != 2 {
		t.Fatalf("trace response = enabled=%v n=%d", tr.Enabled, len(tr.Traces))
	}
	recs := make([]metrics.Record, len(tr.Traces))
	for i, d := range tr.Traces {
		recs[i] = d.Record()
	}
	sum := metrics.Summarize(recs)
	if sum.RejectedRate != 1 || sum.DMR != 0 {
		t.Errorf("RejectedRate=%v DMR=%v, want 1/0", sum.RejectedRate, sum.DMR)
	}
}

// TestPredictClientDisconnect checks a canceled request leaves the handler
// without writing a response, while the outcome is still recorded once the
// runtime resolves it.
func TestPredictClientDisconnect(t *testing.T) {
	_, h, a := startObsServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the client is already gone when the handler runs
	body, _ := json.Marshal(PredictRequest{SampleID: a.Serve[0].ID, DeadlineMS: 1000})
	req := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body)).WithContext(ctx)
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, req)
	if rw.Body.Len() != 0 {
		t.Errorf("handler wrote %q to a dead connection", rw.Body.String())
	}
	// The request still resolves inside the runtime and lands in the
	// handler's counters, flagged canceled.
	testutil.Poll(t, 5*time.Second, "canceled request recorded", func() bool {
		h.mux.Lock()
		st := h.st
		h.mux.Unlock()
		return st.canceled == 1 && st.served+st.degraded+st.missed+st.rejected == 1
	})
}

// promLine matches one Prometheus text-format sample line:
// name{labels} value — enough of the 0.0.4 grammar to catch malformed
// output without an external parser.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_]+="[^"]*"(,[a-zA-Z_]+="[^"]*")*\})? (-?[0-9.e+-]+|\+Inf|NaN)$`)

// checkPromText validates every line of an exposition and returns the
// sample lines.
func checkPromText(t *testing.T, text string) []string {
	t.Helper()
	var samples []string
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Errorf("malformed exposition line: %q", line)
			continue
		}
		samples = append(samples, line)
	}
	return samples
}

func TestMetricsEndpoint(t *testing.T) {
	c, _, a := startObsServer(t)
	const n = 5
	for i := 0; i < n; i++ {
		if _, err := c.Predict(a.Serve[i].ID, 500*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	text, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if len(checkPromText(t, text)) == 0 {
		t.Fatal("empty exposition")
	}
	for _, want := range []string{
		`schemble_submitted_total 5`,
		`schemble_requests_total{outcome="served"}`,
		`schemble_requests_total{outcome="rejected"} 0`,
		`schemble_model_queue_depth{model=`,
		`schemble_traces_total 5`,
		`# TYPE schemble_request_latency_seconds histogram`,
		`schemble_request_latency_seconds_bucket{outcome="served",le="+Inf"} `,
		`schemble_request_latency_seconds_count{outcome="served"} `,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestMetricsWithoutObserver checks the exposition degrades gracefully
// when tracing is off: runtime counters render, trace and histogram
// series are absent.
func TestMetricsWithoutObserver(t *testing.T) {
	c, _, a := startServer(t)
	if _, err := c.Predict(a.Serve[0].ID, 500*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	text, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	checkPromText(t, text)
	if !strings.Contains(text, "schemble_requests_total") {
		t.Error("runtime counters missing")
	}
	if strings.Contains(text, "schemble_traces_total") ||
		strings.Contains(text, "schemble_request_latency_seconds") {
		t.Error("observer series rendered with observability off")
	}
	// The trace endpoint reports disabled rather than erroring.
	tr, err := c.Traces(5)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Enabled || len(tr.Traces) != 0 {
		t.Errorf("trace response = %+v, want disabled", tr)
	}
}

// TestTaskOvershootExported checks the runtime's own timer-overshoot
// instrument on both surfaces: with no faults and no retries every
// executed task is one completed model wait, so the per-model histogram
// count in /v1/metrics equals the executed counter, and /v1/stats carries
// its quantiles. The family renders with observability off — it belongs
// to the runtime, not the observer. So does the starved family beside
// it, whose count /v1/stats repeats per model.
func TestTaskOvershootExported(t *testing.T) {
	c, _, a := startServer(t)
	for i := 0; i < 6; i++ {
		if _, err := c.Predict(a.Serve[i].ID, 500*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	text, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	checkPromText(t, text)
	for _, family := range []string{"schemble_task_overshoot_seconds", "schemble_model_starved_seconds"} {
		if !strings.Contains(text, "# TYPE "+family+" histogram") {
			t.Fatalf("exposition missing the %s family", family)
		}
	}
	var executed float64
	for name := range branch(t, st.Runtime, "schemble_model_executed_total") {
		n := num(t, st.Runtime, "schemble_model_executed_total", name)
		executed += n
		want := fmt.Sprintf("schemble_task_overshoot_seconds_count{model=%q} %d\n", name, uint64(n))
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", strings.TrimSpace(want))
		}
		starved := branch(t, st.Runtime, "schemble_model_starved_seconds", name)
		count, p50, p99 := num(t, starved, "count"), num(t, starved, "p50"), num(t, starved, "p99")
		want = fmt.Sprintf("schemble_model_starved_seconds_count{model=%q} %d\n", name, uint64(count))
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", strings.TrimSpace(want))
		}
		if p50 > p99 || (count > 0) != (p99 > 0) {
			t.Errorf("model %s: starved count=%v p50=%v p99=%v", name, count, p50, p99)
		}
		over := branch(t, st.Runtime, "schemble_task_overshoot_seconds", name)
		if p50, p99 := num(t, over, "p50"), num(t, over, "p99"); n > 0 && !(p50 > 0 && p50 <= p99) {
			t.Errorf("model %s: overshoot p50=%v p99=%v after %v tasks", name, p50, p99, n)
		}
	}
	if executed == 0 {
		t.Fatal("no task executed; the test exercised nothing")
	}
}

// TestTurnInstrumentsExported: the coordinator's two series — events per
// turn and the wall time of a turn's pass — are on both surfaces, agree and
// add up: every submission and every task completion is one event of some
// turn, a turn holds at least one, and every turn ran one pass.
func TestTurnInstrumentsExported(t *testing.T) {
	c, _, a := startServer(t)
	const n = 6
	for i := 0; i < n; i++ {
		if _, err := c.Predict(a.Serve[i].ID, 500*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	events := uint64(n)
	for name := range branch(t, st.Runtime, "schemble_model_executed_total") {
		events += uint64(num(t, st.Runtime, "schemble_model_executed_total", name))
	}
	// The last answer is sent from inside the last turn, a moment before
	// that turn books itself: wait for the books to close.
	var text string
	var turns, passes uint64
	testutil.Poll(t, 5*time.Second, "the last turn booked", func() bool {
		if text, err = c.Metrics(); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(text, "\n") {
			fmt.Sscanf(line, "schemble_turn_events_count %d", &turns)
			fmt.Sscanf(line, "schemble_pass_seconds_count %d", &passes)
		}
		return passes == turns && strings.Contains(text, fmt.Sprintf("schemble_turn_events_sum %d\n", events))
	})
	checkPromText(t, text)
	for _, family := range []string{"schemble_turn_events", "schemble_pass_seconds"} {
		if !strings.Contains(text, "# TYPE "+family+" histogram") {
			t.Fatalf("exposition missing the %s family", family)
		}
	}
	if turns == 0 || turns > events {
		t.Errorf("%d turns over %d events", turns, events)
	}
	// Nothing ran since: /v1/stats reads the same books.
	if st, err = c.Stats(); err != nil {
		t.Fatal(err)
	}
	turn, pass := branch(t, st.Runtime, "schemble_turn_events"), branch(t, st.Runtime, "schemble_pass_seconds")
	if num(t, turn, "count") != float64(turns) || num(t, turn, "sum") != float64(events) || num(t, pass, "count") != float64(passes) {
		t.Errorf("stats turn events %v and pass %v, metrics %d turns of %d events and %d passes", turn, pass, turns, events, passes)
	}
	if !(num(t, turn, "p50") > 0 && num(t, turn, "p50") <= num(t, turn, "p99")) {
		t.Errorf("turn events %v", turn)
	}
	if !(num(t, pass, "p50") > 0 && num(t, pass, "p50") <= num(t, pass, "p99")) {
		t.Errorf("pass seconds %v", pass)
	}
}

// TestModelBacklogExported: the per-model term of the load estimate is on
// both surfaces and they agree, so "load" can be taken apart from outside.
func TestModelBacklogExported(t *testing.T) {
	c, _, a := startServer(t)
	for i := 0; i < 6; i++ {
		if _, err := c.Predict(a.Serve[i].ID, 500*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	readBacklog := func() map[string]any {
		st, err := c.Stats()
		if err != nil {
			t.Fatal(err)
		}
		return branch(t, st.Runtime, "schemble_model_backlog_seconds")
	}
	// A request its deadline resolved can leave a task running whose
	// completion runs a pass, so the exposition is read between two
	// /v1/stats reads that agree: no pass moved the backlog in between.
	var backlog map[string]any
	var text string
	for try := 0; backlog == nil; try++ {
		if try == 20 {
			t.Fatal("the backlog moved across every metrics read")
		}
		before := readBacklog()
		var err error
		if text, err = c.Metrics(); err != nil {
			t.Fatal(err)
		}
		if after := readBacklog(); reflect.DeepEqual(before, after) {
			backlog = after
		}
	}
	checkPromText(t, text)
	if !strings.Contains(text, "# TYPE schemble_model_backlog_seconds gauge") {
		t.Fatal("exposition missing the schemble_model_backlog_seconds family")
	}
	if len(backlog) == 0 {
		t.Fatal("/v1/stats carries no per-model backlog")
	}
	for name := range backlog {
		b := num(t, backlog, name)
		want := fmt.Sprintf("schemble_model_backlog_seconds{model=%q} %g\n", name, b)
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", strings.TrimSpace(want))
		}
		// One closed-loop caller: a pass never finds more than the tasks of
		// one request committed, each under a tenth of a second of work.
		if b < 0 || b > 0.2 {
			t.Errorf("model %s: backlog %v s behind one caller", name, b)
		}
	}
}

func TestTraceEndpoint(t *testing.T) {
	c, _, a := startObsServer(t)
	const n = 6
	for i := 0; i < n; i++ {
		if _, err := c.Predict(a.Serve[i].ID, 500*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	tr, err := c.Traces(3)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Enabled || tr.Total != n || tr.Dropped != 0 {
		t.Fatalf("trace counters = %+v", tr)
	}
	if len(tr.Traces) != 3 {
		t.Fatalf("got %d traces, want 3", len(tr.Traces))
	}
	// Chronological order, newest last: IDs 4, 5, 6.
	for i, d := range tr.Traces {
		if d.ID != uint64(n-2+i) {
			t.Errorf("trace %d ID = %d", i, d.ID)
		}
		if d.Outcome == "" || d.Score == 0 && len(d.Subset) == 0 {
			t.Errorf("trace %d lacks decision context: %+v", i, d)
		}
	}
	// Bad query parameter.
	r, err := c.HTTPClient.Get(c.BaseURL + "/v1/trace?last=nope")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Errorf("bad last status = %d", r.StatusCode)
	}
}

// TestConcurrentScrapeUnderLoad drives 200 requests while scrapers hammer
// /v1/metrics and /v1/trace — the -race acceptance check for the whole
// observability path.
func TestConcurrentScrapeUnderLoad(t *testing.T) {
	c, h, a := startObsServer(t)
	const n = 200
	var wg sync.WaitGroup
	loadDone := make(chan struct{})
	errs := make(chan error, n+16)

	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < n/8; i++ {
				if _, err := c.Predict(a.Serve[(w*n/8+i)%len(a.Serve)].ID, time.Second); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	var scrapeWG sync.WaitGroup
	for g := 0; g < 2; g++ {
		scrapeWG.Add(1)
		go func() {
			defer scrapeWG.Done()
			for {
				select {
				case <-loadDone:
					return
				default:
				}
				text, err := c.Metrics()
				if err != nil {
					errs <- err
					return
				}
				if !strings.Contains(text, "schemble_requests_total") {
					errs <- fmt.Errorf("scrape missing outcome counters: %q", text)
					return
				}
				if _, err := c.Traces(32); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(loadDone)
	scrapeWG.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Everything resolved exactly once, and every resolution traced.
	rt := h.srv.Stats()
	if rt.Resolved != n {
		t.Fatalf("resolved %d, want %d", rt.Resolved, n)
	}
	snap := h.srv.Observer().Snapshot()
	if snap.TracesTotal != n {
		t.Errorf("traces = %d, want %d", snap.TracesTotal, n)
	}
	text, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	checkPromText(t, text)
}
