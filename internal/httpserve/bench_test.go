package httpserve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"schemble/internal/core"
	"schemble/internal/dataset"
	"schemble/internal/model"
	"schemble/internal/pipeline"
	"schemble/internal/serve"
)

// BenchmarkPredict is the HTTP path's micro: one POST /v1/predict through
// the Handler with httptest, JSON in and out, against a zero-config server
// of the shipped deployment. Each request meets an idle runtime, one after
// another. The time scale makes every model wait round to nothing, so an op
// is what HTTP and the runtime add around model time: the request decode,
// the arrival path, the coordinator's turn and pass, the hand-offs to the
// workers and back, the settlement and the response encode. The deadline,
// a day of virtual time, is a tenth of a second on the wall.
func BenchmarkPredict(b *testing.B) {
	arts := pipeline.Build(pipeline.Config{
		Dataset: dataset.TextMatching(dataset.Config{N: 4000, Seed: 7}),
		Models:  model.TextMatchingModels(7),
		Seed:    7,
	})
	h := New(Config{
		Server: serve.New(serve.Config{
			Ensemble: arts.Ensemble, Scheduler: &core.DP{Delta: 0.01}, Rewarder: arts.Profile, Estimator: arts.Predictor,
			TimeScale: 1e-6,
		}),
		Pool: arts.Serve,
	})
	b.Cleanup(h.Close)
	body := fmt.Sprintf(`{"sample_id": %d, "deadline_ms": 86400000}`, arts.Serve[0].ID)
	var rec *httptest.ResponseRecorder
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	b.StopTimer()
	var resp PredictResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || resp.Missed || len(resp.Subset) == 0 {
		b.Fatalf("last response %s (%v): want a served prediction", rec.Body, err)
	}
}
