package httpserve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"
	"time"
)

// Client is a client for the Schemble HTTP API.
type Client struct {
	// BaseURL is the server root, e.g. "http://localhost:8080".
	BaseURL string
	// HTTPClient defaults to a client with a 30s timeout.
	HTTPClient *http.Client
}

// NewClient builds a client for baseURL.
func NewClient(baseURL string) *Client {
	return &Client{
		BaseURL:    baseURL,
		HTTPClient: &http.Client{Timeout: 30 * time.Second},
	}
}

func (c *Client) post(path string, req, resp interface{}) error {
	body, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("httpserve client: marshal: %w", err)
	}
	r, err := c.HTTPClient.Post(c.BaseURL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("httpserve client: %w", err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(r.Body, 512))
		return fmt.Errorf("httpserve client: %s: %s", r.Status, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(r.Body).Decode(resp)
}

func (c *Client) get(path string, resp interface{}) error {
	r, err := c.HTTPClient.Get(c.BaseURL + path)
	if err != nil {
		return fmt.Errorf("httpserve client: %w", err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		return fmt.Errorf("httpserve client: %s", r.Status)
	}
	return json.NewDecoder(r.Body).Decode(resp)
}

// Predict submits one inference request. A 503 from the server (the
// runtime shed the request) is not an error: the response comes back with
// Rejected set so callers can distinguish load shedding from transport
// failures.
func (c *Client) Predict(sampleID int, deadline time.Duration) (PredictResponse, error) {
	body, err := json.Marshal(PredictRequest{
		SampleID:   sampleID,
		DeadlineMS: float64(deadline) / float64(time.Millisecond),
	})
	if err != nil {
		return PredictResponse{}, fmt.Errorf("httpserve client: marshal: %w", err)
	}
	r, err := c.HTTPClient.Post(c.BaseURL+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		return PredictResponse{}, fmt.Errorf("httpserve client: %w", err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK && r.StatusCode != http.StatusServiceUnavailable {
		msg, _ := io.ReadAll(io.LimitReader(r.Body, 512))
		return PredictResponse{}, fmt.Errorf("httpserve client: %s: %s", r.Status, bytes.TrimSpace(msg))
	}
	var resp PredictResponse
	if err := json.NewDecoder(r.Body).Decode(&resp); err != nil {
		return PredictResponse{}, fmt.Errorf("httpserve client: decode: %w", err)
	}
	return resp, nil
}

// Difficulty estimates the discrepancy score for raw features.
func (c *Client) Difficulty(features []float64) (float64, error) {
	var resp DifficultyResponse
	err := c.post("/v1/difficulty", DifficultyRequest{Features: features}, &resp)
	return resp.Score, err
}

// statsReply is /v1/stats as a client decodes it: the instruments under
// "runtime" as a JSON tree.
type statsReply struct {
	Stats
	Runtime map[string]any `json:"runtime"`
}

// healthReply is /v1/health as a client decodes it.
type healthReply struct {
	HealthResponse
	Models map[string]any `json:"models"`
}

// Stats fetches the running counters.
func (c *Client) Stats() (statsReply, error) {
	var st statsReply
	err := c.get("/v1/stats", &st)
	return st, err
}

// Health fetches the per-model health report.
func (c *Client) Health() (healthReply, error) {
	var hr healthReply
	err := c.get("/v1/health", &hr)
	return hr, err
}

// node is the value at path in a decoded JSON tree; the test fails when
// there is none.
func node(t *testing.T, tree map[string]any, path ...string) any {
	t.Helper()
	var v any = tree
	for i, k := range path {
		m, ok := v.(map[string]any)
		if ok {
			v, ok = m[k]
		}
		if !ok {
			t.Fatalf("no %v in the JSON tree", path[:i+1])
		}
	}
	return v
}

// num is the number at path in a decoded JSON tree.
func num(t *testing.T, tree map[string]any, path ...string) float64 {
	t.Helper()
	f, ok := node(t, tree, path...).(float64)
	if !ok {
		t.Fatalf("%v is not a number", path)
	}
	return f
}

// branch is the object at path in a decoded JSON tree.
func branch(t *testing.T, tree map[string]any, path ...string) map[string]any {
	t.Helper()
	m, ok := node(t, tree, path...).(map[string]any)
	if !ok {
		t.Fatalf("%v is not an object", path)
	}
	return m
}

// Traces fetches the last n decision traces.
func (c *Client) Traces(last int) (TraceResponse, error) {
	var tr TraceResponse
	err := c.get(fmt.Sprintf("/v1/trace?last=%d", last), &tr)
	return tr, err
}

// Metrics fetches the raw Prometheus text exposition.
func (c *Client) Metrics() (string, error) {
	r, err := c.HTTPClient.Get(c.BaseURL + "/v1/metrics")
	if err != nil {
		return "", fmt.Errorf("httpserve client: %w", err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		return "", fmt.Errorf("httpserve client: %s", r.Status)
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		return "", fmt.Errorf("httpserve client: %w", err)
	}
	return string(body), nil
}

// Healthy reports whether the server answers its health check.
func (c *Client) Healthy() bool {
	r, err := c.HTTPClient.Get(c.BaseURL + "/v1/healthz")
	if err != nil {
		return false
	}
	r.Body.Close()
	return r.StatusCode == http.StatusOK
}
