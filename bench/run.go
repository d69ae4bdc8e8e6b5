package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"
)

// setupRepeats is how many times an untraced run sets the system up; the
// median is reported as setup_s and the last set-up carries the load.
const setupRepeats = 3

// runSpec is one measured run of one workload.
type runSpec struct {
	w       *workload
	seed    uint64
	seconds float64
	quick   bool
}

// warmup is the unmeasured lead-in: long enough for connections, timers
// and the adaptation sketches to settle, a fixed share of short runs.
func (s runSpec) warmup() time.Duration {
	return min(3*time.Second, time.Duration(s.seconds/7*float64(time.Second)))
}

func (s runSpec) window() window {
	return window{s.warmup(), s.warmup() + time.Duration(s.seconds*float64(time.Second))}
}

// runResult is what one run reports.
type runResult struct {
	metrics map[string]float64
	tally   tally
	// samples is the latency sample count behind the percentiles; tail is
	// the highest percentile that count supports and p99MS the p99 they
	// give, reported but not gated.
	samples int
	tail    float64
	p99MS   float64
	// invalid is set when the generator itself ran late.
	invalid string
	// accounts is, for a traced in-process run, the share of the median
	// latency the per-stage medians explain.
	accounts float64
}

// load is everything one pass of traffic over a started system yields.
type load struct {
	recs  []*record
	usage usage
	stats runtimeStats
	mem   memDelta
}

// memDelta is the Go runtime's allocation and GC activity over the window.
type memDelta struct {
	mallocs, bytes uint64
	pause          time.Duration
	goroutinesPeak int
}

// edgeMarks builds the window-edge snapshots of CPU (via cpu) and of the Go
// runtime's memory statistics (this process's, so meaningful in-process).
func edgeMarks(win window, cpu func() time.Duration, ld *load) []mark {
	var c0 time.Duration
	var m0, m1 runtime.MemStats
	return []mark{
		{win.from, func() {
			c0 = cpu()
			runtime.ReadMemStats(&m0)
		}},
		{win.to, func() {
			ld.usage.cpu = cpu() - c0
			runtime.ReadMemStats(&m1)
			ld.mem.mallocs, ld.mem.bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
			ld.mem.pause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
		}},
	}
}

// peakTarget wraps a target to sample the goroutine count at each send.
type peakTarget struct {
	target
	peak *int
}

func (p peakTarget) submit(i int, a arrival, done func(answer)) {
	p.target.submit(i, a, done)
	if n := runtime.NumGoroutine(); n > *p.peak {
		*p.peak = n
	}
}

// driveInproc sends the workload's arrivals at a started in-process
// runtime, waits for every result, stops the runtime and reads its stats.
func driveInproc(s runSpec, rt *inproc, arrivals []arrival) load {
	var ld load
	rt.prepare(arrivals)
	marks := edgeMarks(s.window(), selfCPU, &ld)
	// Hand the fits' garbage back to the OS first, so that the resident
	// set watched from here on is the serving phase's.
	debug.FreeOSMemory()
	peak := watchRSS(os.Getpid())
	ld.recs = openLoop(wallClock{rt.opts.probe.begin()}, arrivals, peakTarget{rt, &ld.mem.goroutinesPeak}, marks)
	ld.usage.rssPeakKB = peak()
	ld.stats = rt.stats()
	rt.stop()
	return ld
}

// driveHTTP runs the closed loop against base until the window closes. pid
// is the serving process, whose CPU clock and resident set are read; p is
// the traced replica's probe, nil against the binary.
func driveHTTP(s runSpec, d *deployment, base string, p *probe, pid int) (load, error) {
	var ld load
	conns := s.w.httpConns
	client := newHTTPClient(conns)
	defer client.CloseIdleConnections()
	order := shuffledOrder(s.seed, d.poolSize())
	cpu := selfCPU
	if pid != os.Getpid() {
		cpu = func() time.Duration {
			c, _ := procCPU(pid)
			return c
		}
	}
	rss := watchRSS(pid)
	var peak atomic.Int64
	ld.recs = closedLoop(wallClock{p.begin()}, conns, s.window().to,
		func(i int) arrival {
			return arrival{sample: order[i%len(order)], deadline: s.w.httpDeadline}
		},
		func(i int, a arrival) answer {
			if p != nil {
				p.bind(d.sampleID(a.sample), i)
			}
			if n := int64(runtime.NumGoroutine()); n > peak.Load() {
				peak.Store(n)
			}
			return predict(client, base, i, d.sampleID(a.sample), a.deadline)
		},
		edgeMarks(s.window(), cpu, &ld))
	ld.usage.rssPeakKB = rss()
	ld.mem.goroutinesPeak = int(peak.Load())
	c, err := fetchCounts(client, base)
	ld.stats.counts = c
	return ld, err
}

// finish turns a load into the run's accounting and latency samples.
func finish(s runSpec, d *deployment, ld load) (tally, samples) {
	t := verify(d, ld.recs, s.w.http, ld.stats.counts)
	smp := collect(ld.recs, s.window(), func(r *record) bool { return d.agrees(r.sample, r.ans.probs) })
	return t, smp
}

// runUntraced measures the end-to-end metrics: set the system up
// setupRepeats times, put the load on the last one, check every output.
func runUntraced(s runSpec) (runResult, error) {
	var ld load
	var d *deployment
	setups := make([]float64, 0, setupRepeats)
	if s.w.http {
		// The checks need their own copy of the fit. It is made while the
		// binary builds and first starts; that start's time may suffer, and
		// the median of three set-ups does not.
		fit := make(chan *deployment, 1)
		go func() {
			d, _ := buildDeployment(s.quick, false)
			fit <- d
		}()
		bin, err := buildServer()
		if err != nil {
			return runResult{}, err
		}
		probeClient := newHTTPClient(1)
		defer probeClient.CloseIdleConnections()
		var proc *serverProc
		for i := 0; i < setupRepeats; i++ {
			if proc != nil {
				proc.stop()
			}
			if proc, err = spawnServer(bin, runScale, s.quick, probeClient); err != nil {
				return runResult{}, err
			}
			setups = append(setups, proc.setup.Seconds())
		}
		defer proc.stop()
		d = <-fit
		if ld, err = driveHTTP(s, d, proc.base, nil, proc.cmd.Process.Pid); err != nil {
			return runResult{}, err
		}
	} else {
		var rt *inproc
		for i := 0; i < setupRepeats; i++ {
			if rt != nil {
				rt.stop()
			}
			t0 := time.Now()
			d, _ = buildDeployment(s.quick, s.w.features)
			rt = d.start(sutOptions{timeScale: runScale, features: s.w.features})
			setups = append(setups, time.Since(t0).Seconds())
		}
		win := s.window()
		ld = driveInproc(s, rt, s.w.matchedArrivals(d, s.seed, win.from, win.to))
	}
	t, smp := finish(s, d, ld)
	res := runResult{
		metrics: endToEndMetrics(smp, s.window(), median(setups), ld.usage),
		tally:   t,
		samples: len(smp.latMS),
		tail:    supportedTail(len(smp.latMS)),
		p99MS:   percentile(smp.latMS, 0.99),
	}
	if !s.w.http {
		res.invalid = lateness(smp)
	}
	return res, nil
}

// lateness reports an open-loop run whose generator fell behind.
func lateness(smp samples) string {
	if p99 := percentile(smp.lateUS, 0.99); p99 > float64(genLateLimit.Microseconds()) {
		return fmt.Sprintf("generator ran late: gen.late_us_p99 = %.0f us > %d us", p99, genLateLimit.Microseconds())
	}
	return ""
}

// driveReplica runs the closed loop against an in-process replica of the
// binary: the same runtime configuration behind the same httpserve.Handler,
// wrapped in the tracing middleware when o carries a probe.
func driveReplica(s runSpec, d *deployment, o sutOptions) (load, error) {
	h, closeHandler := d.startHTTP(o)
	defer closeHandler()
	if o.probe != nil {
		h = traceHandler(h, o.probe.tr)
	}
	base, stopReplica, err := serveReplica(h)
	if err != nil {
		return load{}, err
	}
	defer stopReplica()
	debug.FreeOSMemory()
	return driveHTTP(s, d, base, o.probe, os.Getpid())
}

// saturationProbe answers what POST /v1/predict sustains: a short closed
// loop over an untraced replica whose models cost microseconds and whose
// deadlines never bind, so the rate is the runtime's own cost per request.
// The figure is CPU-bound on a box shared with the load generator, which is
// why it is a per-layer metric without a bound and not a workload.
func saturationProbe(s runSpec, d *deployment) (float64, tally, error) {
	probe := runSpec{
		w:       &workload{name: "saturation", http: true, httpDeadline: 500 * time.Second, httpConns: runtime.NumCPU()},
		seed:    s.seed,
		seconds: min(2, s.seconds/4),
	}
	ld, err := driveReplica(probe, d, sutOptions{timeScale: saturationScale, obsv: true})
	if err != nil {
		return 0, tally{}, err
	}
	t, smp := finish(probe, d, ld)
	return float64(smp.onTime) / probe.window().seconds(), t, nil
}

// runTraced measures the per-layer metrics. It fits the pipeline once and
// runs the workload twice over it, each for half of the seconds: first
// bare, as the reference the tracing overhead is judged against and the
// source of the Go runtime figures, then with every wrapper on.
func runTraced(s runSpec, tracePath string) (runResult, error) {
	half := s
	half.seconds = s.seconds / 2
	win := half.window()
	d, buildTime := buildDeployment(s.quick, s.w.features)
	var arrivals []arrival
	if !s.w.http {
		arrivals = s.w.matchedArrivals(d, s.seed, win.from, win.to)
	}

	pass := func(p *probe) (load, error) {
		o := sutOptions{timeScale: runScale, features: s.w.features, obsv: s.w.http, probe: p}
		if !s.w.http {
			return driveInproc(half, d.start(o), arrivals), nil
		}
		return driveReplica(half, d, o)
	}

	ref, err := pass(nil)
	if err != nil {
		return runResult{}, err
	}
	refTally, refSmp := finish(half, d, ref)

	p := &probe{tr: newTracer()}
	traced, err := pass(p)
	if err != nil {
		return runResult{}, err
	}
	t, smp := finish(half, d, traced)
	t.merge(refTally)

	addRequestSpans(p.tr, traced.recs)
	spans := p.tr.spans
	linkSpans(spans)
	m := layerMetrics(layerInput{
		spans: spans, probe: p, recs: traced.recs, win: win,
		stats: traced.stats, smp: smp, overHTTP: s.w.http,
	})
	m["pipeline.build_s"] = buildTime.Seconds()
	if s.w.http {
		rps, probeTally, err := saturationProbe(s, d)
		if err != nil {
			return runResult{}, err
		}
		m["httpserve.saturation_rps"] = rps
		t.merge(probeTally)
	}
	reqs := float64(max(refSmp.sent, 1))
	m["proc.cpu_ms_per_req"] = float64(ref.usage.cpu) / 1e6 / reqs
	m["go.allocs_per_req"] = float64(ref.mem.mallocs) / reqs
	m["go.alloc_kb_per_req"] = float64(ref.mem.bytes) / 1024 / reqs
	m["go.gc_pause_ms"] = float64(ref.mem.pause) / 1e6
	m["go.goroutines_peak"] = float64(ref.mem.goroutinesPeak)
	if refSmp.onTime > 0 {
		m["trace.overhead_share"] = 1 - float64(smp.onTime)/float64(refSmp.onTime)
	}
	res := runResult{
		metrics: m, tally: t,
		samples: len(smp.latMS), tail: supportedTail(len(smp.latMS)), p99MS: percentile(smp.latMS, 0.99),
	}
	if !s.w.http {
		res.invalid = lateness(smp)
		res.accounts = traceAccounts(m, percentile(smp.latMS, 0.5))
	}
	if tracePath != "" {
		if err := writeSpans(tracePath, spans); err != nil {
			return res, err
		}
	}
	return res, nil
}
