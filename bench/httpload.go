package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

// repoRoot finds the module root (the directory holding go.mod) from the
// working directory: the driver runs the harness from the checkout's root,
// `go test` from bench/.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no go.mod above the working directory")
		}
		dir = parent
	}
}

// outDir is where the harness keeps what it builds and writes, bench/out
// under the module root; it is ignored by git.
func outDir() (string, error) {
	root, err := repoRoot()
	if err != nil {
		return "", err
	}
	dir := filepath.Join(root, "bench", "out")
	return dir, os.MkdirAll(dir, 0o755)
}

// buildServer compiles cmd/schemble-server into bench/out.
func buildServer() (string, error) {
	dir, err := outDir()
	if err != nil {
		return "", err
	}
	bin := filepath.Join(dir, "schemble-server")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/schemble-server")
	cmd.Dir = filepath.Dir(filepath.Dir(dir))
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building schemble-server: %v\n%s", err, out)
	}
	return bin, nil
}

// serverProc is a running schemble-server child.
type serverProc struct {
	cmd  *exec.Cmd
	base string
	// setup is spawn -> first 200 from /v1/healthz.
	setup time.Duration
}

// spawnServer starts the binary on a free loopback port and waits for it
// to answer its liveness probe.
func spawnServer(bin string, timeScale float64, quick bool, client *http.Client) (*serverProc, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	args := []string{"-addr", addr, "-timescale", strconv.FormatFloat(timeScale, 'g', -1, 64)}
	if quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(runtime.NumCPU()))
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &serverProc{cmd: cmd, base: "http://" + addr}
	for {
		resp, err := client.Get(p.base + "/v1/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				p.setup = time.Since(t0)
				return p, nil
			}
		}
		if time.Since(t0) > 2*time.Minute {
			p.stop()
			return nil, errors.New("schemble-server did not become healthy in 2 minutes")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop asks the child to drain and waits until it has exited, killing it
// if the drain hangs.
func (p *serverProc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	exited := make(chan struct{})
	go func() {
		_ = p.cmd.Wait()
		close(exited)
	}()
	select {
	case <-exited:
	case <-time.After(15 * time.Second):
		_ = p.cmd.Process.Kill()
		<-exited
	}
}

// newHTTPClient builds a keep-alive client capped at conns connections.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			IdleConnTimeout:     time.Minute,
		},
	}
}

// The wire shapes of POST /v1/predict and GET /v1/stats, as far as the
// harness reads them.
type predictRequest struct {
	SampleID   int     `json:"sample_id"`
	DeadlineMS float64 `json:"deadline_ms"`
}

type predictResponse struct {
	Missed   bool      `json:"missed"`
	Rejected bool      `json:"rejected"`
	Degraded bool      `json:"degraded"`
	Cached   bool      `json:"cached"`
	Probs    []float64 `json:"probs"`
	Subset   []int     `json:"subset"`
}

type statsResponse struct {
	Runtime struct {
		Submitted uint64 `json:"submitted"`
		Served    uint64 `json:"served"`
		Degraded  uint64 `json:"degraded"`
		Missed    uint64 `json:"missed"`
		Rejected  uint64 `json:"rejected"`
	} `json:"runtime"`
}

// reqHeader carries the request index to the traced replica's middleware.
const reqHeader = "X-Bench-Req"

// predict performs one POST /v1/predict and decodes the answer.
func predict(client *http.Client, base string, i, sampleID int, deadline time.Duration) answer {
	body, _ := json.Marshal(predictRequest{SampleID: sampleID, DeadlineMS: float64(deadline) / float64(time.Millisecond)})
	req, err := http.NewRequest(http.MethodPost, base+"/v1/predict", bytes.NewReader(body))
	if err != nil {
		return answer{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(reqHeader, strconv.Itoa(i))
	resp, err := client.Do(req)
	if err != nil {
		return answer{err: err}
	}
	defer resp.Body.Close()
	a := answer{status: resp.StatusCode}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
		io.Copy(io.Discard, resp.Body)
		return a
	}
	var pr predictResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		a.err = fmt.Errorf("decoding /v1/predict: %w", err)
		return a
	}
	a.missed, a.rejected, a.degraded, a.cached = pr.Missed, pr.Rejected, pr.Degraded, pr.Cached
	a.probs, a.subset = pr.Probs, pr.Subset
	return a
}

// fetchCounts reads the runtime's outcome counters from GET /v1/stats.
func fetchCounts(client *http.Client, base string) (counts, error) {
	resp, err := client.Get(base + "/v1/stats")
	if err != nil {
		return counts{}, err
	}
	defer resp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return counts{}, fmt.Errorf("decoding /v1/stats: %w", err)
	}
	r := st.Runtime
	return counts{r.Submitted, r.Served, r.Degraded, r.Missed, r.Rejected}, nil
}

// serveReplica serves h on a loopback listener inside this process — the
// traced stand-in for the binary — and returns its base URL and a stop
// function that waits for the server goroutine.
func serveReplica(h http.Handler) (string, func(), error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		_ = srv.Serve(l)
		close(done)
	}()
	return "http://" + l.Addr().String(), func() {
		_ = srv.Close()
		<-done
	}, nil
}

// traceHandler is the middleware of the traced replica: one
// httpserve.handle span per request, keyed by the index the client sent.
func traceHandler(h http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, err := strconv.Atoi(r.Header.Get(reqHeader))
		if err != nil {
			req = noRequest
		}
		t0 := tr.now()
		h.ServeHTTP(w, r)
		tr.add(spHandle, req, t0, tr.now())
	})
}
