package httpserve

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"schemble/internal/cluster"
	"schemble/internal/core"
	"schemble/internal/rcache"
	"schemble/internal/rng"
	"schemble/internal/serve"
)

// startCachedServer spins up the HTTP stack over a runtime with the result
// cache enabled and every query admitted; classes, if any, make it a classed
// deployment.
func startCachedServer(t *testing.T, classes ...serve.Class) (*Client, string) {
	t.Helper()
	a := artifacts(t)
	points := make([][]float64, len(a.Serve))
	for i, s := range a.Serve {
		points[i] = s.Features
	}
	km, err := cluster.Fit(points, 64, 30, rng.New(12))
	if err != nil {
		t.Fatal(err)
	}
	h := New(Config{
		Server: serve.New(serve.Config{
			Ensemble:  a.Ensemble,
			Scheduler: &core.DP{Delta: 0.01},
			Rewarder:  a.Profile,
			Estimator: a.Predictor,
			TimeScale: 0.05,
			Seed:      1,
			Cache:     rcache.Config{Keyer: rcache.CentroidKeyer{KM: km}, DifficultyMax: 1},
			Classes:   classes,
		}),
		Estimator: a.Predictor,
		Pool:      a.Serve,
	})
	ts := httptest.NewServer(h)
	t.Cleanup(func() {
		ts.Close()
		h.Close()
	})
	return NewClient(ts.URL), ts.URL
}

// TestCacheSurfaces drives a miss-then-hit pair through HTTP and checks
// both the /v1/stats JSON object and the /v1/metrics exposition report it.
func TestCacheSurfaces(t *testing.T) {
	c, url := startCachedServer(t)
	a := artifacts(t)
	for i := 0; i < 2; i++ {
		resp, err := c.Predict(a.Serve[0].ID, 500*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Missed {
			t.Fatalf("request %d missed", i)
		}
		if want := i == 1; resp.Cached != want {
			t.Errorf("request %d cached = %v, want %v", i, resp.Cached, want)
		}
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	rt := st.Runtime
	if _, ok := rt["schemble_cache_requests_total"]; !ok {
		t.Fatal("stats omit the cache families on a cached deployment")
	}
	if num(t, rt, "schemble_cache_requests_total", "hit") != 1 || num(t, rt, "schemble_cache_requests_total", "miss") != 1 ||
		num(t, rt, "schemble_cache_fills_total") != 1 || num(t, rt, "schemble_cache_hit_rate") != 0.5 {
		t.Errorf("cache stats = %v, want 1 hit / 1 miss / 1 fill", rt)
	}

	res, err := http.Get(url + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		`schemble_cache_requests_total{result="hit"} 1`,
		`schemble_cache_requests_total{result="miss"} 1`,
		`schemble_cache_requests_total{result="bypass"} 0`,
		`schemble_cache_fills_total 1`,
		`schemble_cache_entries 1`,
		`schemble_cache_hit_rate 0.5`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestClassCachedSurfaces: on a classed deployment the cache's answers are
// counted per class, next to what admission shed, in both /v1/stats and
// /v1/metrics, and the classes' counts add up to the cache's own hits.
func TestClassCachedSurfaces(t *testing.T) {
	c, _ := startCachedServer(t,
		serve.Class{Name: "gold", Priority: 1, Deadline: 400 * time.Millisecond},
		serve.Class{Name: "bronze", Priority: 0, Deadline: 600 * time.Millisecond})
	a := artifacts(t)
	// Unlabelled requests land in the lowest class: one miss, two hits.
	for i := 0; i < 3; i++ {
		resp, err := c.Predict(a.Serve[0].ID, 500*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if want := i > 0; resp.Missed || resp.Cached != want {
			t.Fatalf("request %d: missed %v cached %v, want served with cached = %v", i, resp.Missed, resp.Cached, want)
		}
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	byClass := branch(t, st.Runtime, "schemble_class_cached_total")
	want := map[string]float64{"gold": 0, "bronze": 2}
	if len(byClass) != len(want) {
		t.Errorf("cached answers reported for classes %v, want %v", byClass, want)
	}
	var cached float64
	for name, w := range want {
		if got := num(t, byClass, name); got != w {
			t.Errorf("class %s reports %v cached answers, want %v", name, got, w)
		}
		cached += num(t, byClass, name)
	}
	if hits := num(t, st.Runtime, "schemble_cache_requests_total", "hit"); cached != hits {
		t.Errorf("classes count %v cached answers, the cache %v hits", cached, hits)
	}
	text, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`schemble_class_cached_total{class="gold"} 0`,
		`schemble_class_cached_total{class="bronze"} 2`,
		`schemble_class_shed_total{class="bronze"} 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestCacheSurfacesOmittedWhenOff pins the cacheless wire format: no cache
// family in stats.
func TestCacheSurfacesOmittedWhenOff(t *testing.T) {
	c, _, a := startServer(t)
	if _, err := c.Predict(a.Serve[0].ID, 500*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for family := range st.Runtime {
		if strings.HasPrefix(family, "schemble_cache_") {
			t.Errorf("cacheless deployment reports %s", family)
		}
	}
}
