// Command schemble-server exposes a fitted Schemble deployment over HTTP.
// Model execution is simulated (optionally time-compressed), but requests
// traverse the real concurrent scheduler, so clients observe genuine
// queueing, subset selection and deadline behaviour.
//
//	schemble-server -addr :8080 -timescale 0.1 &
//	curl -s localhost:8080/v1/predict -d '{"sample_id": 5, "deadline_ms": 150}'
//	curl -s localhost:8080/v1/stats
//
// The binary embeds its default deployment's fitted pipeline (seed 7, see
// deploy.go) and restores it at start; -quick and other -seeds fit theirs
// at every start instead, unless -snapshot caches the fit on disk.
//
// Observability: -trace-buffer keeps the last N decision traces for
// GET /v1/trace and feeds the latency histograms behind GET /v1/metrics;
// -trace-log streams every trace to a JSONL serving log that
// schemble-analyze reads; -pprof-addr serves net/http/pprof on a side
// listener kept off the public API.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registers profiling handlers on DefaultServeMux
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"schemble/internal/adapt"
	"schemble/internal/cluster"
	"schemble/internal/core"
	"schemble/internal/httpserve"
	"schemble/internal/model"
	"schemble/internal/obsv"
	"schemble/internal/rcache"
	"schemble/internal/rng"
	"schemble/internal/serve"
)

// parseClasses turns the -classes flag into request classes. The format is
// a comma list of name:priority:deadline[:weight] entries, e.g.
// "gold:2:300ms:3,bronze:0:1s:1"; weight defaults to 1.
func parseClasses(s string) ([]serve.Class, error) {
	if s == "" {
		return nil, nil
	}
	var out []serve.Class
	for i, entry := range strings.Split(s, ",") {
		parts := strings.Split(strings.TrimSpace(entry), ":")
		if len(parts) < 3 || len(parts) > 4 {
			return nil, fmt.Errorf("entry %d (%q): want name:priority:deadline[:weight]", i, entry)
		}
		c := serve.Class{Name: parts[0], Weight: 1}
		if c.Name == "" {
			return nil, fmt.Errorf("entry %d: empty class name", i)
		}
		pr, err := strconv.Atoi(parts[1])
		if err != nil {
			return nil, fmt.Errorf("entry %d (%q): bad priority: %v", i, entry, err)
		}
		c.Priority = pr
		if c.Deadline, err = time.ParseDuration(parts[2]); err != nil {
			return nil, fmt.Errorf("entry %d (%q): bad deadline: %v", i, entry, err)
		}
		if len(parts) == 4 {
			if c.Weight, err = strconv.ParseFloat(parts[3], 64); err != nil {
				return nil, fmt.Errorf("entry %d (%q): bad weight: %v", i, entry, err)
			}
		}
		out = append(out, c)
	}
	return out, nil
}

// parseReplicas turns the -replicas flag into a per-model pool-size
// vector: empty means nil (one replica each), a single integer applies to
// every model, and a comma list must name every model in order.
func parseReplicas(s string, m int) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	vals := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("entry %d (%q) is not an integer", i, p)
		}
		if v < 1 {
			return nil, fmt.Errorf("entry %d (%d) must be >= 1", i, v)
		}
		vals[i] = v
	}
	if len(vals) == 1 {
		out := make([]int, m)
		for i := range out {
			out[i] = vals[0]
		}
		return out, nil
	}
	if len(vals) != m {
		return nil, fmt.Errorf("got %d entries, deployment has %d models", len(vals), m)
	}
	return vals, nil
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	timescale := flag.Float64("timescale", 0.1, "wall-clock compression for simulated model latencies")
	seed := flag.Uint64("seed", defaultSeed, "deployment seed")
	snapshot := flag.String("snapshot", "", "path to cache the fitted pipeline (empty = restore the shipped fit of the default deployment, or fit -quick and other -seeds at every start)")
	queueDepth := flag.Int("queuedepth", 0, "per-model task queue bound (0 = default 1024); full queues reject instead of blocking")
	replicasFlag := flag.String("replicas", "", "replica-pool sizes: one int for every model (e.g. 4) or a comma list per model (e.g. 1,2,4); empty = 1 each")
	drainTimeout := flag.Duration("drain", 10*time.Second, "graceful-shutdown grace period for committed in-flight work")
	faultRate := flag.Float64("fault-rate", 0, "chaos: probability a task attempt fails transiently (0 = off)")
	stragglerRate := flag.Float64("straggler-rate", 0, "chaos: probability a task attempt straggles at 8x latency (0 = off)")
	crashMTBF := flag.Duration("crash-mtbf", 0, "chaos: mean time between replica crashes in virtual time (0 = off)")
	classesFlag := flag.String("classes", "", "request classes as name:priority:deadline[:weight],... (e.g. gold:2:300ms:3,bronze:0:1s); empty = classless")
	admCapacity := flag.Float64("admission-capacity", 0, "admission-controller capacity in queries per virtual second (0 = derive from the bottleneck model)")
	admTarget := flag.Duration("admission-target", 0, "backlog drain-time target in virtual time; load 1.0 means the backlog drains in exactly this long (0 = default 500ms)")
	cacheOn := flag.Bool("cache", false, "enable the difficulty-gated result cache")
	cacheSize := flag.Int("cache-size", 1024, "cache: entry capacity (LRU beyond it)")
	cacheTTL := flag.Duration("cache-ttl", 0, "cache: entry lifetime in virtual time (0 = never expires)")
	cacheDifficultyMax := flag.Float64("cache-difficulty-max", 0.5, "cache: only queries with difficulty score <= this are cacheable")
	cacheRegions := flag.Int("cache-regions", 64, "cache: k-means centroids keying the feature space")
	adaptOn := flag.Bool("adapt", false, "enable online adaptation: live latency profiles feed the cost model and hedging, and a detector flags latency and difficulty drift")
	traceBuffer := flag.Int("trace-buffer", 512, "decision traces kept for /v1/trace (0 disables tracing and the latency histograms)")
	traceLog := flag.String("trace-log", "", "append decision traces as JSONL serving-log records to this file (implies observability on)")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this side listener (empty = off)")
	quick := flag.Bool("quick", false, "fit a small pipeline for smoke tests (a fraction of a second) instead of restoring the shipped fit of the default deployment")
	flag.Parse()

	arts := loadPipeline(deployConfig(*seed, *quick), *snapshot)

	obsCfg := obsv.Config{TraceBuffer: *traceBuffer}
	var closeSink func() (uint64, error)
	if *traceLog != "" {
		f, err := os.OpenFile(*traceLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cannot open trace log: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		obsCfg.Sink, closeSink = obsv.NewJSONLSink(f)
		fmt.Fprintf(os.Stderr, "streaming decision traces to %s\n", *traceLog)
	}

	if *pprofAddr != "" {
		// Profiling stays on a side listener so the public API surface is
		// unchanged; the blank pprof import registered its handlers on
		// http.DefaultServeMux.
		go func() {
			fmt.Fprintf(os.Stderr, "pprof on %s/debug/pprof/\n", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "pprof listener: %v\n", err)
			}
		}()
	}

	faults := model.FaultConfig{
		TransientRate: *faultRate,
		StragglerRate: *stragglerRate,
		CrashMTBF:     *crashMTBF,
		Seed:          *seed,
	}
	replicas, err := parseReplicas(*replicasFlag, arts.Ensemble.M())
	if err != nil {
		fmt.Fprintf(os.Stderr, "-replicas: %v\n", err)
		os.Exit(2)
	}
	classes, err := parseClasses(*classesFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "-classes: %v\n", err)
		os.Exit(2)
	}
	var cacheCfg rcache.Config
	if *cacheOn {
		// Key the cache off a fresh k-means fit over the serving pool's
		// feature space: samples landing in the same centroid share answers.
		points := make([][]float64, len(arts.Serve))
		for i, s := range arts.Serve {
			points[i] = s.Features
		}
		start := time.Now()
		km, err := cluster.Fit(points, *cacheRegions, 30, rng.New(*seed^0xcac4e))
		fitTime := time.Since(start)
		if err != nil {
			fmt.Fprintf(os.Stderr, "-cache: fitting keyer: %v\n", err)
			os.Exit(1)
		}
		cacheCfg = rcache.Config{
			Keyer:         rcache.CentroidKeyer{KM: km},
			Capacity:      *cacheSize,
			TTL:           *cacheTTL,
			DifficultyMax: *cacheDifficultyMax,
		}
		fmt.Fprintf(os.Stderr,
			"result cache: %d centroids fitted in %.3fs, capacity %d, ttl %v, difficulty-max %.2f\n",
			km.K(), fitTime.Seconds(), *cacheSize, *cacheTTL, *cacheDifficultyMax)
	}
	rt := serve.New(serve.Config{
		Ensemble:   arts.Ensemble,
		Scheduler:  &core.DP{Delta: 0.01},
		Rewarder:   arts.Profile,
		Estimator:  arts.Predictor,
		TimeScale:  *timescale,
		QueueDepth: *queueDepth,
		Replicas:   replicas,
		Classes:    classes,
		Admission:  serve.AdmissionConfig{Capacity: *admCapacity, Target: *admTarget},
		Cache:      cacheCfg,
		Adapt:      adapt.Config{Enable: *adaptOn},
		Seed:       *seed,
		Faults:     faults,
		Obs:        obsCfg,
	})
	if faults.Enabled() {
		fmt.Fprintf(os.Stderr,
			"chaos enabled: fault-rate=%.3f straggler-rate=%.3f crash-mtbf=%v\n",
			*faultRate, *stragglerRate, *crashMTBF)
	}
	if replicas != nil {
		fmt.Fprintf(os.Stderr, "replica pools: %v\n", replicas)
	}
	if len(classes) > 0 {
		names := make([]string, len(classes))
		for i, c := range classes {
			names[i] = fmt.Sprintf("%s(p%d,%v)", c.Name, c.Priority, c.Deadline)
		}
		fmt.Fprintf(os.Stderr, "request classes: %s\n", strings.Join(names, " "))
	}
	h := httpserve.New(httpserve.Config{
		Server:    rt,
		Estimator: arts.Predictor,
		Pool:      arts.Serve,
	})

	httpSrv := &http.Server{Addr: *addr, Handler: h}
	idle := make(chan struct{})
	go func() {
		defer close(idle)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
		<-sig
		fmt.Fprintln(os.Stderr, "shutting down: draining committed work...")
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := rt.Drain(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "drain cut short: %v\n", err)
		}
		if err := httpSrv.Shutdown(ctx); err != nil {
			httpSrv.Close()
		}
	}()

	fmt.Fprintf(os.Stderr, "serving %d-sample pool on %s (timescale %.2f)\n",
		len(arts.Serve), *addr, *timescale)
	if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	<-idle
	h.Close()
	if closeSink != nil {
		if dropped, err := closeSink(); err != nil {
			fmt.Fprintf(os.Stderr, "trace log: %v\n", err)
		} else if dropped > 0 {
			fmt.Fprintf(os.Stderr, "trace log: %d traces dropped under backpressure\n", dropped)
		}
	}
	st := rt.Stats()
	fmt.Fprintf(os.Stderr,
		"final runtime stats: submitted=%d served=%d degraded=%d missed=%d rejected=%d\n",
		st.Submitted, st.Served, st.Degraded, st.Missed, st.Rejected)
}
