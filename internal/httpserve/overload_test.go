package httpserve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"schemble/internal/core"
	"schemble/internal/serve"
)

// startClassedServer spins up the HTTP stack over a classed runtime.
func startClassedServer(t *testing.T) (*httptest.Server, *Handler) {
	t.Helper()
	a := artifacts(t)
	h := New(Config{
		Server: serve.New(serve.Config{
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
		}),
		Estimator: a.Predictor,
		Pool:      a.Serve,
	})
	ts := httptest.NewServer(h)
	t.Cleanup(func() {
		ts.Close()
		h.Close()
	})
	return ts, h
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
	var raw struct {
		Runtime struct {
			Load        float64      `json:"load"`
			LadderState string       `json:"ladder_state"`
			Classes     []ClassStats `json:"classes"`
		} `json:"runtime"`
	}
	r, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(r.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if len(raw.Runtime.Classes) != 2 || raw.Runtime.LadderState == "" {
		t.Errorf("stats JSON: %d classes, ladder %q", len(raw.Runtime.Classes), raw.Runtime.LadderState)
	}
	var total uint64
	for _, cs := range raw.Runtime.Classes {
		total += cs.Submitted
	}
	if total != 3 {
		t.Errorf("class-submitted total %d, want 3", total)
	}
}

// TestRetryAfterDerivedFromLoad floods a classed deployment far past
// capacity and checks the 503 contract: every shed response carries a
// Retry-After header that is a positive integer, and the header value
// tracks the runtime's load-derived hint rather than a hard-coded "1"
// (the serve-level growth law is pinned by qos.TestRetryAfterGrowsWithBacklog).
//
// The flood is a closed loop that runs until sheds have been seen, not a
// single volley: admission only engages once the coordinator has observed
// the backlog, and a volley can be admitted whole before it has run a
// pass. The live hint is read by a client that was just shed, while the
// other clients' requests still hold the backlog — the estimator decays
// within milliseconds of the flood draining.
func TestRetryAfterDerivedFromLoad(t *testing.T) {
	ts, h := startClassedServer(t)
	a := artifacts(t)

	const clients, wantSheds = 64, 10
	var wg sync.WaitGroup
	var mu sync.Mutex
	sheds := 0
	retryAfters := map[string]int{}
	liveHints := map[int]int{}
	deadline := time.Now().Add(20 * time.Second)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; ; i += clients {
				mu.Lock()
				done := sheds >= wantSheds
				mu.Unlock()
				if done || time.Now().After(deadline) {
					return
				}
				body := `{"sample_id": ` + strconv.Itoa(a.Serve[i%50].ID) + `, "class": "bronze"}`
				resp := postPredict(t, ts.URL, body, "")
				ra := resp.Header.Get("Retry-After")
				resp.Body.Close()
				if resp.StatusCode != http.StatusServiceUnavailable {
					continue
				}
				// The handler derives the hint from the live estimator.
				live := h.srv.RetryAfterSeconds()
				mu.Lock()
				sheds++
				retryAfters[ra]++
				liveHints[live]++
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	if sheds < wantSheds {
		t.Fatalf("%d closed-loop bronze clients at 5x+ capacity shed %d requests, want %d", clients, sheds, wantSheds)
	}
	for ra, count := range retryAfters {
		secs, err := strconv.Atoi(ra)
		if err != nil || secs < 1 {
			t.Errorf("%d sheds carried invalid Retry-After %q", count, ra)
		}
	}
	for live, count := range liveHints {
		if live < 1 {
			t.Errorf("RetryAfterSeconds = %d on %d reads under load, want >= 1", live, count)
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
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/v1/metrics missing %q", want)
		}
	}
}
