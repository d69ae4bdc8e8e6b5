package main

// sut.go is the harness's whole contact surface with the system under
// test: every import of schemble/internal/... lives in this file, and
// bench/README.md lists the signatures it pins. Layers are measured from
// outside, by wrapping the interfaces the runtime already accepts and by
// timing calls into public functions; nothing here reaches into a package.

import (
	"context"
	"math"
	"net/http"
	"sync/atomic"
	"time"

	"schemble/internal/adapt"
	"schemble/internal/cluster"
	"schemble/internal/core"
	"schemble/internal/dataset"
	"schemble/internal/discrepancy"
	"schemble/internal/ensemble"
	"schemble/internal/httpserve"
	"schemble/internal/model"
	"schemble/internal/obsv"
	"schemble/internal/pipeline"
	"schemble/internal/qos"
	"schemble/internal/rcache"
	"schemble/internal/rng"
	"schemble/internal/serve"
	"schemble/internal/trace"
)

// The surface this file leans on, pinned so that a change to any of it
// fails `go build ./...` — tier-1 — rather than a benchmark run. README.md
// lists the same signatures; keep the two in step.
var (
	_ func(pipeline.Config) *pipeline.Artifacts                                       = pipeline.Build
	_ func(serve.Config) *serve.Server                                                = serve.New
	_ func(*serve.Server, context.Context)                                            = (*serve.Server).Start
	_ func(*serve.Server, *dataset.Sample, time.Duration, string) <-chan serve.Result = (*serve.Server).SubmitClass
	_ func(*serve.Server) serve.Stats                                                 = (*serve.Server).Stats
	_ func(*serve.Server) *obsv.Observer                                              = (*serve.Server).Observer
	_ func(*serve.Server)                                                             = (*serve.Server).Stop
	_ func(httpserve.Config) *httpserve.Handler                                       = httpserve.New
	_ func(*httpserve.Handler)                                                        = (*httpserve.Handler).Close
	_ func(*ensemble.Ensemble, []model.Output, ensemble.Subset) model.Output          = (*ensemble.Ensemble).Predict
	_ func(*ensemble.Scorer, model.Output, model.Output) float64                      = (*ensemble.Scorer).Score
	_ func([][]float64, int, int, *rng.Source) (*cluster.KMeans, error)               = cluster.Fit
	_ func(trace.PoissonConfig) *trace.Trace                                          = trace.Poisson
	_ func(trace.MMPPConfig) *trace.Trace                                             = trace.MMPP
	_ func(trace.FlashCrowdConfig) *trace.Trace                                       = trace.FlashCrowd
	_ func(obsv.DecisionTrace)                                                        = obsv.Config{}.Sink
	_ http.Handler                                                                    = (*httpserve.Handler)(nil)
	_ discrepancy.ScoreEstimator                                                      = tracedEstimator{}
	_ core.Scheduler                                                                  = tracedScheduler{}
	_ core.Rewarder                                                                   = tracedRewarder{}
	_ model.Model                                                                     = (*tracedModel)(nil)
	_ ensemble.Aggregator                                                             = tracedAggregator{}
	_ rcache.Keyer                                                                    = tracedKeyer{}
	_ adapt.OutcomeScorer                                                             = tracedScorer{}
	_ trace.DeadlinePolicy                                                            = uniformDeadline{}
)

// deploySeed fixes the deployment (dataset, models, fitted pipeline); it is
// cmd/schemble-server's default -seed, so the binary and the in-process
// runtime serve the same pool. The harness's -seed only drives traffic.
const deploySeed = 7

// The opt-in feature settings mirror cmd/schemble-server's flag defaults.
const (
	cacheRegions       = 64
	cacheCapacity      = 1024
	cacheDifficultyMax = 0.5
	obsvRing           = 512
)

// flashClasses is the three-tier mixture of the flash-crowd workload, the
// same tiers cmd/schemble-overload gates on.
var flashClasses = []qos.Class{
	{Name: "gold", Priority: 2, Deadline: 400 * time.Millisecond, Weight: 3},
	{Name: "silver", Priority: 1, Deadline: 400 * time.Millisecond, Weight: 2},
	{Name: "bronze", Priority: 0, Deadline: 600 * time.Millisecond, Weight: 1},
}

var flashShares = []float64{0.2, 0.3, 0.5}

// deployment is a fitted pipeline plus what the output checks need.
type deployment struct {
	arts  *pipeline.Artifacts
	keyer rcache.Keyer // fitted only for the features workload
}

func pipelineConfig(quick bool) pipeline.Config {
	cfg := pipeline.Config{
		Dataset: dataset.TextMatching(dataset.Config{N: 4000, Seed: deploySeed}),
		Models:  model.TextMatchingModels(deploySeed),
		Seed:    deploySeed,
	}
	if quick {
		// The same shrunken fit cmd/schemble-server -quick uses.
		cfg.Dataset = dataset.TextMatching(dataset.Config{N: 1200, Seed: deploySeed})
		cfg.PredictorEpochs = 25
	}
	return cfg
}

// buildDeployment fits the pipeline (and, for the features workload, the
// cache keyer) and reports how long pipeline.Build alone took.
func buildDeployment(quick, features bool) (*deployment, time.Duration) {
	cfg := pipelineConfig(quick)
	t0 := time.Now()
	d := &deployment{arts: pipeline.Build(cfg)}
	buildTime := time.Since(t0)
	if features {
		points := make([][]float64, len(d.arts.Serve))
		for i, s := range d.arts.Serve {
			points[i] = s.Features
		}
		km, err := cluster.Fit(points, cacheRegions, 30, rng.New(deploySeed^0xcac4e))
		if err != nil {
			panic("bench: fitting cache keyer: " + err.Error())
		}
		d.keyer = rcache.CentroidKeyer{KM: km}
	}
	return d, buildTime
}

func (d *deployment) poolSize() int       { return len(d.arts.Serve) }
func (d *deployment) sampleID(pi int) int { return d.arts.Serve[pi].ID }

// expected recomputes the answer the runtime must have produced for pool
// sample pi from the given subset: Ensemble.Predict over the precomputed
// base outputs.
func (d *deployment) expected(pi int, subset []int) []float64 {
	var sub ensemble.Subset
	for _, k := range subset {
		if k < 0 || k >= d.arts.Ensemble.M() {
			return nil
		}
		sub = sub.With(k)
	}
	if sub == ensemble.Empty {
		return nil
	}
	return d.arts.Ensemble.Predict(d.arts.Outs[d.sampleID(pi)], sub).Probs
}

// agrees is the paper's accuracy-given-deadline judgement: does the answer
// agree with the full ensemble's on this sample.
func (d *deployment) agrees(pi int, probs []float64) bool {
	return d.arts.Scorer.Score(model.Output{Probs: probs}, d.arts.Refs[d.sampleID(pi)]) >= 0.5
}

// ---- traffic ----

// uniformDeadline draws each request's relative deadline uniformly from
// [min, max) on the trace's own seeded source.
type uniformDeadline struct{ min, max time.Duration }

func (u uniformDeadline) Relative(_ *dataset.Sample, src *rng.Source) time.Duration {
	return time.Duration(src.Uniform(float64(u.min), float64(u.max)))
}

// fromTrace converts a virtual-time trace into wall-time arrivals.
func fromTrace(tr *trace.Trace) []arrival {
	out := make([]arrival, len(tr.Arrivals))
	for i, a := range tr.Arrivals {
		out[i] = arrival{
			at:       time.Duration(float64(a.At) * runScale),
			sample:   a.SampleIdx,
			deadline: a.Deadline - a.At,
			class:    a.Class,
		}
	}
	return out
}

// The generators take a virtual horizon and return the process's arrivals
// over it. trace.Poisson and trace.MMPP generate a count, not a span, so
// the count is doubled until the trace reaches the horizon; a longer trace
// from one seed extends the shorter one, so the result depends on the seed
// alone.

func (d *deployment) poissonArrivals(seed uint64, rate float64, deadline, horizon time.Duration) []arrival {
	for n := int(rate*horizon.Seconds()*1.2) + 64; ; n *= 2 {
		tr := trace.Poisson(trace.PoissonConfig{
			RatePerSec: rate, N: n, Samples: d.arts.Serve,
			Deadline: trace.ConstantDeadline(deadline), Seed: seed,
		})
		if tr.Horizon >= horizon {
			return fromTrace(tr.Window(0, horizon))
		}
	}
}

func (d *deployment) mmppArrivals(seed uint64, rates []float64, hold []time.Duration, minDeadline, maxDeadline, horizon time.Duration) []arrival {
	peak := 0.0
	for _, r := range rates {
		peak = math.Max(peak, r)
	}
	for n := int(peak*horizon.Seconds()/2) + 64; ; n *= 2 {
		tr := trace.MMPP(trace.MMPPConfig{
			Rates: rates, MeanHold: hold, N: n, Samples: d.arts.Serve,
			Deadline: uniformDeadline{minDeadline, maxDeadline}, Seed: seed,
		})
		if tr.Horizon >= horizon {
			return fromTrace(tr.Window(0, horizon))
		}
	}
}

// flashArrivals is a flash crowd whose ramp lies inside the warm-up: quiet
// background for the first quarter of it, a linear climb over the next
// half, and the peak held from there to the horizon. A crowd that comes
// and goes inside the measured part makes every figure a mixture of two
// regimes whose weights swing from seed to seed; the plateau is what the
// opt-in paths are measured on.
func (d *deployment) flashArrivals(seed uint64, background, peak float64, from, horizon time.Duration) []arrival {
	mix := make([]trace.ClassMix, len(flashClasses))
	for i, c := range flashClasses {
		mix[i] = trace.ClassMix{Name: c.Name, Share: flashShares[i], Deadline: c.Deadline}
	}
	return fromTrace(trace.FlashCrowd(trace.FlashCrowdConfig{
		BackgroundRate: background, Classes: mix, PeakFactor: peak,
		CrowdStart: max(from/4, 1), RampUp: max(from/2, 1), Hold: horizon, RampDown: 1,
		Horizon: horizon, Samples: d.arts.Serve, Seed: seed,
	}))
}

// ---- the runtime, in-process ----

// sutOptions selects how the runtime is configured for one run.
type sutOptions struct {
	timeScale float64
	features  bool // classes + admission, rcache, adapt, obsv
	obsv      bool // the binary's default trace ring, without the other features
	probe     *probe
}

// counts is the outcome taxonomy as the runtime reports it.
type counts struct {
	submitted, served, degraded, missed, rejected uint64
}

// runtimeStats is what the harness reads from Server.Stats.
type runtimeStats struct {
	counts
	shed              uint64
	topClassSubmitted uint64
	topClassOnTime    uint64
	cacheHits         uint64
	inflationMax      float64
	obsvTraces        uint64
	obsvDropped       uint64
}

// inproc is a started serve.Server.
type inproc struct {
	d    *deployment
	srv  *serve.Server
	opts sutOptions
	// copies gives each traced request its own shallow *dataset.Sample so
	// the pointer identifies the request inside the wrappers.
	copies []dataset.Sample
}

func (d *deployment) serveConfig(o sutOptions) serve.Config {
	cfg := serve.Config{
		Ensemble:  d.arts.Ensemble,
		Scheduler: &core.DP{Delta: 0.01},
		Rewarder:  d.arts.Profile,
		Estimator: d.arts.Predictor,
		TimeScale: o.timeScale,
		Seed:      deploySeed,
		Tolerance: serve.DefaultTolerance(),
	}
	if o.obsv || o.features {
		cfg.Obs = obsv.Config{TraceBuffer: obsvRing}
	}
	var scorer adapt.OutcomeScorer = d.arts.DisScorer
	keyer := d.keyer
	if p := o.probe; p != nil {
		e := d.arts.Ensemble
		models := make([]model.Model, len(e.Models))
		for k, m := range e.Models {
			models[k] = &tracedModel{Model: m, k: k, p: p, scale: o.timeScale}
		}
		cfg.Ensemble = ensemble.New(e.Task, models, tracedAggregator{e.Agg, p}, e.Weights)
		cfg.Scheduler = tracedScheduler{cfg.Scheduler, p}
		cfg.Rewarder = tracedRewarder{cfg.Rewarder, p}
		cfg.Estimator = tracedEstimator{cfg.Estimator, p}
		scorer = tracedScorer{scorer, p}
		if keyer != nil {
			keyer = tracedKeyer{keyer, p}
		}
		if o.features {
			cfg.Obs.Sink = func(obsv.DecisionTrace) { p.sinkTraces.Add(1) }
		}
	}
	if o.features {
		cfg.Classes = flashClasses
		cfg.Cache = rcache.Config{Keyer: keyer, Capacity: cacheCapacity, DifficultyMax: cacheDifficultyMax}
		// Recalibration scores every clean full-ensemble outcome into its
		// reservoir, but the support it needs before fitting a map is set
		// out of reach, so the predictor's scores are used as they are. A
		// fitted map moves the share of queries under the cache's
		// difficulty gate by tens of points, differently on every run of
		// one seed, and the on-time share follows it between 0.71 and 0.91
		// (bench/README.md has the runs).
		cfg.Adapt = adapt.Config{Enable: true, Scorer: scorer, RecalMinPairs: math.MaxInt32}
	}
	return cfg
}

// start builds and starts the runtime: serve.New + Start.
func (d *deployment) start(o sutOptions) *inproc {
	r := &inproc{d: d, srv: serve.New(d.serveConfig(o)), opts: o}
	r.srv.Start(context.Background())
	return r
}

// prepare gives every request of a traced run its own sample copy and
// teaches the probe to map the pointer back to the request index.
func (r *inproc) prepare(arrivals []arrival) {
	p := r.opts.probe
	if p == nil {
		return
	}
	r.copies = make([]dataset.Sample, len(arrivals))
	byPtr := make(map[*dataset.Sample]int, len(arrivals))
	for i, a := range arrivals {
		r.copies[i] = *r.d.arts.Serve[a.sample]
		byPtr[&r.copies[i]] = i
	}
	p.reqOf = func(s *dataset.Sample) int {
		if i, ok := byPtr[s]; ok {
			return i
		}
		return noRequest
	}
}

// submit implements target over Server.SubmitClass. The result is received
// on its own goroutine, as a real caller would block on the channel.
func (r *inproc) submit(i int, a arrival, done func(answer)) {
	s := r.d.arts.Serve[a.sample]
	p := r.opts.probe
	var ch <-chan serve.Result
	if p != nil {
		s = &r.copies[i]
		p.current.Store(int64(i))
		t0 := p.tr.now()
		ch = r.srv.SubmitClass(s, a.deadline, a.class)
		p.tr.add(spSubmit, i, t0, p.tr.now())
	} else {
		ch = r.srv.SubmitClass(s, a.deadline, a.class)
	}
	go func() {
		res := <-ch
		ans := answer{missed: res.Missed, rejected: res.Rejected, degraded: res.Degraded, cached: res.Cached}
		if !res.Missed {
			ans.probs, ans.subset = res.Output.Probs, res.Subset.Models()
		}
		done(ans)
	}()
}

func (r *inproc) stats() runtimeStats {
	st := r.srv.Stats()
	out := runtimeStats{counts: counts{st.Submitted, st.Served, st.Degraded, st.Missed, st.Rejected}}
	top := -1
	for i, c := range st.Classes {
		out.shed += c.Shed
		if top < 0 || c.Priority > st.Classes[top].Priority {
			top = i
		}
	}
	if top >= 0 {
		out.topClassSubmitted = st.Classes[top].Submitted
		out.topClassOnTime = st.Classes[top].Served + st.Classes[top].Degraded
	}
	if c := st.Cache; c != nil {
		out.cacheHits = c.Hits
	}
	if a := st.Adapt; a != nil {
		for _, m := range a.Models {
			out.inflationMax = math.Max(out.inflationMax, m.Inflation)
		}
	}
	snap := r.srv.Observer().Snapshot()
	out.obsvTraces, out.obsvDropped = snap.TracesTotal, snap.TracesDropped
	return out
}

func (r *inproc) stop() { r.srv.Stop() }

// startHTTP builds the runtime behind an httpserve.Handler exactly as
// cmd/schemble-server wires it (httpserve.New starts the server itself)
// and returns the handler with its Close.
func (d *deployment) startHTTP(o sutOptions) (http.Handler, func()) {
	h := httpserve.New(httpserve.Config{
		Server: serve.New(d.serveConfig(o)), Estimator: d.arts.Predictor, Pool: d.arts.Serve,
	})
	if p := o.probe; p != nil {
		// Over HTTP the handler picks the pool's own sample, so requests
		// are told apart by sample ID: the closed loop never has two
		// requests for one sample in flight.
		byID := make([]atomic.Int64, len(d.arts.Dataset.Samples))
		p.reqOf = func(s *dataset.Sample) int { return int(byID[s.ID].Load()) }
		p.bind = func(sampleID, req int) { byID[sampleID].Store(int64(req)) }
	}
	return h, h.Close
}

// ---- probes: the wrappers of a traced run ----

// probe collects what the wrappers see. Spans go to the tracer; counts
// that have no interval of their own live here.
type probe struct {
	tr *tracer
	// reqOf maps the sample a wrapper was handed to its request index.
	reqOf func(*dataset.Sample) int
	// bind announces which request is about to carry a sample ID (HTTP).
	bind func(sampleID, req int)
	// current is the request the generator is submitting right now, for
	// wrappers called under SubmitClass with no sample in hand.
	current atomic.Int64

	rewardCalls  atomic.Int64
	tasksStarted atomic.Int64
	sinkTraces   atomic.Int64

	// schedule-call facts and timer overshoots, appended under tr.mu.
	sched     []schedCall
	overshoot []float64
}

// begin starts the run's clock. A traced run's tracer takes the same epoch,
// so record times and span times are one timeline. No wrapper runs before
// the first request, so the tracer is not yet shared.
func (p *probe) begin() time.Time {
	epoch := time.Now()
	if p != nil {
		p.tr.epoch = epoch
	}
	return epoch
}

// schedCall is one Scheduler.Schedule call as seen from outside.
type schedCall struct {
	at              int64
	offered, placed int
	rewards         int64
}

type tracedEstimator struct {
	inner discrepancy.ScoreEstimator
	p     *probe
}

func (e tracedEstimator) Predict(s *dataset.Sample) float64 {
	t0 := e.p.tr.now()
	v := e.inner.Predict(s)
	e.p.tr.add(spScore, e.p.reqOf(s), t0, e.p.tr.now())
	return v
}

type tracedRewarder struct {
	inner core.Rewarder
	p     *probe
}

func (r tracedRewarder) Reward(score float64, s ensemble.Subset) float64 {
	r.p.rewardCalls.Add(1)
	return r.inner.Reward(score, s)
}

type tracedScheduler struct {
	inner core.Scheduler
	p     *probe
}

func (s tracedScheduler) Name() string { return s.inner.Name() }

func (s tracedScheduler) Schedule(now time.Duration, queries []core.QueryInfo, avail core.Capacity, exec []time.Duration, r core.Rewarder) core.Plan {
	before := s.p.rewardCalls.Load()
	t0 := s.p.tr.now()
	plan := s.inner.Schedule(now, queries, avail, exec, r)
	t1 := s.p.tr.now()
	call := schedCall{at: t0, offered: len(queries), rewards: s.p.rewardCalls.Load() - before}
	for _, q := range queries {
		if plan.Subset(q.ID) != ensemble.Empty {
			call.placed++
		}
	}
	s.p.tr.add(spSchedule, noRequest, t0, t1)
	s.p.tr.mu.Lock()
	s.p.sched = append(s.p.sched, call)
	s.p.tr.mu.Unlock()
	return plan
}

// tracedModel times one base model. The runtime runs one replica per model
// here, so SampleLatency (the worker picking the task up) and the Predict
// that follows it happen on one goroutine and the fields between them need
// no lock.
type tracedModel struct {
	model.Model
	k     int
	p     *probe
	scale float64

	pickedUp int64
	drawn    time.Duration
}

func (m *tracedModel) SampleLatency(src *rng.Source) time.Duration {
	m.pickedUp = m.p.tr.now()
	m.drawn = m.Model.SampleLatency(src)
	m.p.tasksStarted.Add(1)
	return m.drawn
}

func (m *tracedModel) Predict(s *dataset.Sample) model.Output {
	t0 := m.p.tr.now()
	out := m.Model.Predict(s)
	t1 := m.p.tr.now()
	req := m.p.reqOf(s)
	m.p.tr.addSub(spModelPredict, m.k, req, t0, t1)
	m.p.tr.addSub(spExec, m.k, req, m.pickedUp, t1)
	over := float64(t0-m.pickedUp) - float64(m.drawn)*m.scale
	m.p.tr.mu.Lock()
	m.p.overshoot = append(m.p.overshoot, over)
	m.p.tr.mu.Unlock()
	return out
}

type tracedAggregator struct {
	inner ensemble.Aggregator
	p     *probe
}

func (a tracedAggregator) Name() string { return a.inner.Name() }

func (a tracedAggregator) Aggregate(task dataset.Task, outs []model.Output, present ensemble.Subset) model.Output {
	t0 := a.p.tr.now()
	out := a.inner.Aggregate(task, outs, present)
	a.p.tr.add(spAggregate, noRequest, t0, a.p.tr.now())
	return out
}

type tracedKeyer struct {
	inner rcache.Keyer
	p     *probe
}

func (k tracedKeyer) Key(features []float64) (int, bool) {
	t0 := k.p.tr.now()
	key, ok := k.inner.Key(features)
	k.p.tr.add(spKey, int(k.p.current.Load()), t0, k.p.tr.now())
	return key, ok
}

type tracedScorer struct {
	inner adapt.OutcomeScorer
	p     *probe
}

func (s tracedScorer) Score(outs []model.Output, ens model.Output) float64 {
	t0 := s.p.tr.now()
	v := s.inner.Score(outs, ens)
	s.p.tr.add(spAdaptScore, noRequest, t0, s.p.tr.now())
	return v
}
