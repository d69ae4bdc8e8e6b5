package httpserve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"schemble/internal/core"
	"schemble/internal/serve"
)

// FuzzHTTPPredict hammers POST /v1/predict with arbitrary bodies against
// a live runtime. The contract under fuzz: the handler never panics and
// never emits a 5xx other than the deliberate 503 load-shed, malformed
// input maps to 4xx, and every 200/503 body is well-formed JSON. The
// handler is shared across iterations, so the fuzzer also exercises the
// runtime with whatever request mixture it invents.
func FuzzHTTPPredict(f *testing.F) {
	a := artifacts(f)
	h := New(Config{
		Server: serve.New(serve.Config{
			Ensemble:  a.Ensemble,
			Scheduler: &core.DP{Delta: 0.01},
			Rewarder:  a.Profile,
			Estimator: a.Predictor,
			TimeScale: 0.05,
			Seed:      42,
			Replicas:  []int{1, 2, 1},
		}),
		Estimator: a.Predictor,
		Pool:      a.Serve,
	})
	f.Cleanup(h.Close)

	f.Add([]byte(`{"sample_id": 3, "deadline_ms": 150}`))
	f.Add([]byte(`{"sample_id": 0, "deadline_ms": 0.5}`))
	f.Add([]byte(`{"sample_id": -1, "deadline_ms": 100}`))
	f.Add([]byte(`{"sample_id": 999999999, "deadline_ms": 100}`))
	f.Add([]byte(`{"sample_id": 1, "deadline_ms": -7}`))
	f.Add([]byte(`{"sample_id": 2, "deadline_ms": 1e308}`))
	f.Add([]byte(`{"sample_id": "three", "deadline_ms": {}}`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`null`))
	f.Add([]byte("\x00\xff\xfe garbage"))

	f.Fuzz(func(t *testing.T, body []byte) {
		// Harness clamp, not handler policy: a parseable body with an
		// enormous deadline is a legal request the runtime would resolve,
		// but an iteration must not wait minutes for it.
		var probe PredictRequest
		if err := json.Unmarshal(body, &probe); err == nil && probe.DeadlineMS > 60_000 {
			t.Skip("deadline beyond the harness budget")
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		req := httptest.NewRequest(http.MethodPost, "/v1/predict",
			strings.NewReader(string(body))).WithContext(ctx)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)

		code := rec.Code
		if code >= 500 && code != http.StatusServiceUnavailable {
			t.Fatalf("body %q: got %d, want only 503 among 5xx", body, code)
		}
		if code == http.StatusOK || code == http.StatusServiceUnavailable {
			var resp PredictResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("body %q: status %d with unparseable response %q: %v",
					body, code, rec.Body.Bytes(), err)
			}
			if code == http.StatusServiceUnavailable && !resp.Rejected {
				t.Fatalf("body %q: 503 without rejected flag", body)
			}
		}
	})
}
