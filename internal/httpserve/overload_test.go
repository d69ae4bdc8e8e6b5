package httpserve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"schemble/internal/core"
	"schemble/internal/qos"
	"schemble/internal/serve"
	"schemble/internal/testutil"
)

// startClassedServer spins up the HTTP stack over a classed runtime; tweak
// adjusts the runtime's configuration before it is built. The cleanup
// drains the runtime first, so a request still waiting in it is answered
// before the HTTP server waits for it.
func startClassedServer(t *testing.T, tweak ...func(*serve.Config)) (*httptest.Server, *Handler) {
	t.Helper()
	a := artifacts(t)
	cfg := serve.Config{
		Ensemble:  a.Ensemble,
		Scheduler: &core.DP{Delta: 0.01},
		Rewarder:  a.Profile,
		Estimator: a.Predictor,
		TimeScale: 0.05,
		Classes: []serve.Class{
			{Name: "gold", Priority: 1, Deadline: 400 * time.Millisecond, Weight: 3},
			{Name: "bronze", Priority: 0, Deadline: 600 * time.Millisecond, Weight: 1},
		},
		Seed: 1,
	}
	for _, f := range tweak {
		f(&cfg)
	}
	h := New(Config{Server: serve.New(cfg), Estimator: a.Predictor, Pool: a.Serve})
	ts := httptest.NewServer(h)
	t.Cleanup(func() {
		h.Close()
		ts.Close()
	})
	return ts, h
}

// planNothing is a scheduler that never places a query.
type planNothing struct{}

func (planNothing) Name() string { return "none" }
func (planNothing) Schedule(time.Duration, []core.QueryInfo, core.Capacity, []time.Duration, core.Rewarder) core.Plan {
	return core.Plan{}
}

func postPredict(t *testing.T, url string, body string, header string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/predict", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if header != "" {
		req.Header.Set("X-Schemble-Class", header)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestClassedPredictDefaults checks class selection over HTTP: the body's
// class field applies the class deadline when deadline_ms is omitted, and
// the X-Schemble-Class header overrides the body.
func TestClassedPredictDefaults(t *testing.T) {
	ts, h := startClassedServer(t)
	a := artifacts(t)
	id := strconv.Itoa(a.Serve[3].ID)

	// Class in the body, no deadline: the class default applies and the
	// request serves normally.
	resp := postPredict(t, ts.URL, `{"sample_id": `+id+`, "class": "gold"}`, "")
	var pr PredictResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || pr.Missed {
		t.Fatalf("classed predict: status %d missed=%v", resp.StatusCode, pr.Missed)
	}

	// Header overrides body; an unknown header class falls back to the
	// default class rather than erroring.
	resp = postPredict(t, ts.URL, `{"sample_id": `+id+`, "class": "gold"}`, "no-such-class")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("header-override predict: status %d", resp.StatusCode)
	}

	// No deadline and no class is still an error on classed deployments
	// only when the class resolves nowhere — classless behavior is pinned
	// by TestErrorPaths. Here an empty class with no deadline errors.
	resp = postPredict(t, ts.URL, `{"sample_id": `+id+`}`, "")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("classed deployment must default empty class: status %d", resp.StatusCode)
	}

	// Per-class counters surfaced over /v1/stats.
	st := h.srv.Stats()
	if len(st.Classes) != 2 {
		t.Fatalf("runtime reports %d classes", len(st.Classes))
	}
	var raw statsReply
	r, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(r.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	submitted := branch(t, raw.Runtime, "schemble_class_submitted_total")
	if len(submitted) != 2 {
		t.Errorf("stats JSON: %d classes", len(submitted))
	}
	num(t, raw.Runtime, "schemble_load")
	num(t, raw.Runtime, "schemble_ladder_state")
	var total float64
	for name := range submitted {
		total += num(t, submitted, name)
	}
	if total != 3 {
		t.Errorf("class-submitted total %v, want 3", total)
	}
}

// TestRetryAfterDerivedFromLoad: every 503 a shed request gets carries a
// Retry-After of at least a second, the hint comes from the live estimator,
// and the flood shows in /v1/metrics. A scheduler that plans nothing keeps
// every admitted request buffered for its hour-long deadline, and a buffered
// request is priced at one Target of backlog, so each gold arrival's pass a
// virtual second after the last (past the controller's dwell) climbs the
// ladder one rung from load 1 on, until bronze is shed. Gold's bucket holds
// six requests and refills six a virtual second, so tokens never shed it. A
// shed arrival runs no pass, so the ladder then holds for every bronze
// request.
func TestRetryAfterDerivedFromLoad(t *testing.T) {
	const capacity = 8 // requests per virtual second, gold's weight 3 of 4
	ts, h := startClassedServer(t, func(c *serve.Config) {
		c.Scheduler = planNothing{}
		c.Classes[0].Deadline, c.Classes[1].Deadline = time.Hour, time.Hour
		c.Admission = serve.AdmissionConfig{Capacity: capacity, Target: time.Second / capacity}
	})
	a := artifacts(t)
	body := func(i int, class string) string {
		return `{"sample_id": ` + strconv.Itoa(a.Serve[i].ID) + `, "class": "` + class + `"}`
	}
	bronze := func() qos.Level { return h.srv.Stats().Classes[1].Level }
	for gold := 0; bronze() != qos.LevelShed; gold++ {
		if gold == 16 {
			t.Fatalf("bronze at %q after 16 buffered gold requests", bronze())
		}
		// The request waits in the runtime until the cleanup drains it.
		go func() {
			if resp, err := http.Post(ts.URL+"/v1/predict", "application/json", strings.NewReader(body(gold, "gold"))); err == nil {
				resp.Body.Close()
			}
		}()
		testutil.Poll(t, 10*time.Second, "gold arrival planned", func() bool {
			return h.srv.Stats().TurnEvents.Count == uint64(gold+1)
		})
		planned := h.srv.Now()
		testutil.Poll(t, 10*time.Second, "a virtual second gone", func() bool {
			return h.srv.Now() >= planned+time.Second
		})
	}
	const wantSheds = 10
	for i := 0; i < wantSheds; i++ {
		resp := postPredict(t, ts.URL, body(i, "bronze"), "")
		ra := resp.Header.Get("Retry-After")
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("bronze request %d at the shed rung: status %d, want 503", i, resp.StatusCode)
		}
		if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
			t.Errorf("shed %d carried invalid Retry-After %q", i, ra)
		}
		// The handler derives the hint from the live estimator.
		if live := h.srv.RetryAfterSeconds(); live < 1 {
			t.Errorf("RetryAfterSeconds = %d under load, want >= 1", live)
		}
	}

	// The flood shows up in the class metrics exposition.
	r, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(r.Body)
	r.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		"schemble_load ",
		"schemble_ladder_state ",
		`schemble_class_requests_total{class="bronze",outcome="rejected"}`,
		`schemble_class_shed_total{class="bronze"}`,
		`schemble_class_slo_attainment{class="gold"}`,
		`schemble_class_service_level{class="bronze"}`,
		`schemble_class_level_seconds_total{class="bronze",level="full"}`,
		`schemble_class_level_seconds_total{class="gold",level="shed"} 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/v1/metrics missing %q", want)
		}
	}
}
