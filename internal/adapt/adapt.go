// Package adapt is the online-adaptation layer: live latency profiles,
// one obsv.Histogram per model, whose high quantile scales the planner's
// cost model, and a windowed drift detector over observed-vs-profiled
// latency and over the difficulty-score distribution.
//
// The package follows the engine-agnostic qos/rcache pattern: every
// method takes the caller's virtual clock, there are no goroutines, no
// timers, no wall-clock reads and no RNG (enforced by the enginepure
// analyzer), so a replay of the serving runtime (serve) adapts the same
// way every time. Package-level state is absent by construction; all
// state lives in an Engine guarded by one mutex.
package adapt

import (
	"strconv"
	"sync"
	"time"

	"schemble/internal/model"
	"schemble/internal/obsv"
)

// OutcomeScorer computes the true discrepancy score of a served sample
// from the full ensemble's outputs. *discrepancy.Scorer satisfies it. It
// is kept only as the type of Config.Scorer, which nothing calls since
// score recalibration was removed.
type OutcomeScorer interface {
	Score(outs []model.Output, ens model.Output) float64
}

// Config configures an Engine. The zero value disables adaptation
// entirely: New returns nil and the runtimes stay bit-identical to an
// adaptation-free build (the twin-server test pins this).
type Config struct {
	// Enable turns the engine on; every setting is a package constant.
	Enable bool

	// Scorer and RecalMinPairs are accepted and ignored. They configured
	// the incremental recalibration of the discrepancy predictor, which
	// was removed because it never paid on its own soak; the names stay
	// so that configs written against them still build.
	Scorer        OutcomeScorer
	RecalMinPairs int
}

// Enabled reports whether the config asks for an engine.
func (c Config) Enabled() bool { return c.Enable }

// The engine's settings.
const (
	// costQuantile is the live latency quantile the cost model plans
	// against. The frozen profiling numbers are means; a high quantile
	// makes the planner pessimistic exactly when observed latency spreads
	// or shifts. It is the highest of 0.90, 0.95 and 0.99 at which the
	// drift soak (seeds 7, 11, 13) keeps adaptation's accuracy at or above
	// frozen profiles' (DESIGN.md "Online adaptation": at 0.99 it falls
	// below at seeds 7 and 13).
	costQuantile = 0.95
	// minSamples is the per-model observation count below which Inflation
	// stays 1: a cold profile must not perturb planning.
	minSamples = 32
	// maxInflation and minInflation clamp the inflation factor so a
	// pathological profile can never starve or flood the planner.
	maxInflation = 8
	minInflation = 0.25

	// driftWindow is the detector window length in virtual time,
	// driftMinCount the observations a window needs to be judged, and
	// driftPatience the consecutive out-of-band (or in-band) windows that
	// flip the hysteretic state machine.
	driftWindow   = 2 * time.Second
	driftMinCount = 8
	driftPatience = 2
	// latencyBand is the tolerated relative deviation of the windowed
	// mean latency from the profiled mean (±50%) before a window counts
	// as drifted.
	latencyBand = 0.5
	// scoreBand is the tolerated absolute deviation of the windowed mean
	// difficulty score from the baseline, which self-calibrates from the
	// first judged window.
	scoreBand = 0.15
	// eventBuffer bounds the retained drift-event ring.
	eventBuffer = 64

	// A live profile's buckets are bounded by 50µs·1.22^i for i in
	// 0..64, then overflow: 50µs to ~17s, around any model service time
	// this system schedules, so a quantile is within a factor 1.22 of the
	// true order statistic.
	profileMin     = 50 * time.Microsecond
	profileGrowth  = 1.22
	profileBuckets = 65
)

// Engine is the online-adaptation state for one deployment: a latency
// histogram per model, and the drift detector. All methods are safe for
// concurrent use; observation and query paths never allocate.
type Engine struct {
	mu sync.Mutex
	//schemble:guardedby mu
	perModel []*obsv.Histogram
	//schemble:guardedby mu
	det detector

	// profiled[k] is model k's frozen profiling mean, the drift and
	// inflation reference; base[k] the engine's planning cost at that
	// mean (profiled plus the engine's margin). Both immutable after New.
	profiled []time.Duration
	base     []time.Duration
}

// New builds an engine for a fleet of len(profiled) models. profiled
// carries the frozen profiling mean latencies, base the engine's planning
// cost vector at those means (ExecInto scales base, preserving whatever
// margin the engine bakes in). Returns nil when the config is disabled,
// so a nil-check is the only branch adaptation adds to a zero-config
// runtime.
func New(cfg Config, profiled, base []time.Duration) *Engine {
	if !cfg.Enabled() {
		return nil
	}
	m := len(profiled)
	e := &Engine{
		perModel: make([]*obsv.Histogram, m),
		profiled: append([]time.Duration(nil), profiled...),
		base:     append([]time.Duration(nil), base...),
	}
	for k := range e.perModel {
		e.perModel[k] = obsv.NewHistogram(profileMin, profileGrowth, profileBuckets)
	}
	e.det = detector{
		latWin:   make([]window, m),
		latState: make([]driftState, m),
	}
	return e
}

// ObserveLatency folds one completed task execution into model k's
// profile and the latency drift detector. now and lat are virtual time.
// Never allocates.
func (e *Engine) ObserveLatency(now time.Duration, k int, lat time.Duration) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if k < 0 || k >= len(e.perModel) {
		return
	}
	e.perModel[k].Observe(lat)
	w := &e.det.latWin[k]
	if w.started && now-w.start >= driftWindow {
		if w.n >= driftMinCount && e.profiled[k] > 0 {
			ratio := w.sum / float64(w.n) / float64(e.profiled[k])
			out := ratio > 1+latencyBand || ratio < 1-latencyBand
			if e.det.latState[k].observe(out, driftPatience) {
				e.det.push(DriftEvent{At: now, Kind: DriftLatency, Model: k,
					Enter: e.det.latState[k].active, Value: ratio})
			}
		}
		w.started = false
	}
	if !w.started {
		*w = window{started: true, start: now}
	}
	w.sum += float64(lat)
	w.n++
}

// ObserveScore folds one predicted difficulty score into the score-drift
// detector. Never allocates.
func (e *Engine) ObserveScore(now time.Duration, score float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	w := &e.det.scoreWin
	if w.started && now-w.start >= driftWindow {
		if w.n >= driftMinCount {
			mean := w.sum / float64(w.n)
			if !e.det.baselineSet {
				// Self-calibrate the reference from the first judged
				// window; that window itself is never judged.
				e.det.baseline = mean
				e.det.baselineSet = true
			} else {
				delta := mean - e.det.baseline
				out := delta > scoreBand || delta < -scoreBand
				if e.det.scoreState.observe(out, driftPatience) {
					e.det.push(DriftEvent{At: now, Kind: DriftScore, Model: -1,
						Enter: e.det.scoreState.active, Value: mean})
				}
			}
		}
		w.started = false
	}
	if !w.started {
		*w = window{started: true, start: now}
	}
	w.sum += score
	w.n++
}

// Inflation reports model k's current cost inflation factor: the live
// costQuantile latency over the frozen profiled mean, clamped to
// [minInflation, maxInflation], or exactly 1 while the profile is cold.
// Callers hold no lock. Never allocates.
func (e *Engine) Inflation(k int) float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.inflationLocked(k)
}

// inflationLocked is Inflation's body; callers hold e.mu.
func (e *Engine) inflationLocked(k int) float64 {
	if k < 0 || k >= len(e.perModel) {
		return 1
	}
	h := e.perModel[k]
	if h.Count() < minSamples || e.profiled[k] <= 0 {
		return 1
	}
	infl := float64(h.Quantile(costQuantile)) / float64(e.profiled[k])
	return min(max(infl, minInflation), maxInflation)
}

// Quantile reports model k's live q-quantile latency (0 while empty).
func (e *Engine) Quantile(k int, q float64) time.Duration {
	e.mu.Lock()
	defer e.mu.Unlock()
	if k < 0 || k >= len(e.perModel) {
		return 0
	}
	return e.perModel[k].Quantile(q)
}

// ExecInto writes the live planning cost vector into exec: the engine's
// frozen base cost per model scaled by the current inflation factor.
// exec must have length len(profiled); extra entries are left untouched.
// It never allocates, keeping the planning hot path at zero allocations
// per decision.
func (e *Engine) ExecInto(exec []time.Duration) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for k := 0; k < len(e.base) && k < len(exec); k++ {
		exec[k] = time.Duration(float64(e.base[k]) * e.inflationLocked(k))
	}
}

// ActiveDrift returns the currently active drift conditions as trace
// labels ("latency:<model>", "score"), or nil when none are active.
// Allocates only when drift is active; intended for decision-trace
// enrichment, not the planning path.
func (e *Engine) ActiveDrift() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []string
	for k := range e.det.latState {
		if e.det.latState[k].active {
			out = append(out, DriftLatency+":"+strconv.Itoa(k))
		}
	}
	if e.det.scoreState.active {
		out = append(out, DriftScore)
	}
	return out
}

// Snapshot is a point-in-time export of the engine for /v1/stats and the
// drift soak report.
type Snapshot struct {
	Models        []ModelAdapt `json:"models"`
	ScoreDrift    bool         `json:"score_drift"`
	BaselineScore float64      `json:"baseline_score"`
	LatencyEvents uint64       `json:"latency_events"`
	ScoreEvents   uint64       `json:"score_events"`
	// Events are the most recent drift transitions, oldest first.
	Events []DriftEvent `json:"events,omitempty"`
}

// ModelAdapt is one model's live profile view.
type ModelAdapt struct {
	Samples      uint64        `json:"samples"`
	Mean         time.Duration `json:"mean"`
	P50          time.Duration `json:"p50"`
	P90          time.Duration `json:"p90"`
	P99          time.Duration `json:"p99"`
	ProfiledMean time.Duration `json:"profiled_mean"`
	Inflation    float64       `json:"inflation"`
	Drift        bool          `json:"drift"`
}

// Snapshot exports the engine's current state. Safe for concurrent use;
// allocates (it is a reporting surface, not a planning one).
func (e *Engine) Snapshot() *Snapshot {
	e.mu.Lock()
	defer e.mu.Unlock()
	snap := &Snapshot{
		Models:        make([]ModelAdapt, len(e.perModel)),
		ScoreDrift:    e.det.scoreState.active,
		BaselineScore: e.det.baseline,
		LatencyEvents: e.det.latencyEvents,
		ScoreEvents:   e.det.scoreEvents,
		Events:        e.det.recent(),
	}
	for k, h := range e.perModel {
		hs := h.Snapshot()
		snap.Models[k] = ModelAdapt{
			Samples:      hs.Count,
			Mean:         hs.Mean(),
			P50:          hs.Quantile(0.5),
			P90:          hs.Quantile(0.9),
			P99:          hs.Quantile(0.99),
			ProfiledMean: e.profiled[k],
			Inflation:    e.inflationLocked(k),
			Drift:        e.det.latState[k].active,
		}
	}
	return snap
}
