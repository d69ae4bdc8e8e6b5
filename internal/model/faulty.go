// Faulty decorates a Model with seeded, deterministic failure modes so the
// serving layers can be exercised against an unreliable substrate without
// touching the models themselves. Three fault classes cover the failure
// taxonomy real ensemble-serving fleets see:
//
//   - transient error: the attempt fails immediately (connection reset,
//     OOM-killed batch, CUDA error) but the model stays healthy;
//   - straggler: the attempt completes, but its latency is multiplied by a
//     heavy tail factor (noisy neighbour, GC pause, thermal throttle);
//   - crash: the model dies and stays dead for a recovery window; every
//     attempt that starts inside the window fails instantly.
//
// Prediction itself is never corrupted: a Faulty model that completes an
// attempt returns exactly the wrapped model's deterministic output, so
// fault injection is opt-in and orthogonal to accuracy. An attempt's fault
// is a pure function of (seed, the attempt's key), whatever order attempts
// arrive in. The one state kept between attempts is the crash window, in
// time: a crash drawn at an instant takes effect for attempts that start
// after it, so attempts meeting at one instant decide alike in any order.
package model

import (
	"sync"
	"time"

	"schemble/internal/rng"
)

// FaultKind classifies the outcome drawn for one execution attempt.
type FaultKind int

const (
	// FaultNone means the attempt proceeds normally.
	FaultNone FaultKind = iota
	// FaultTransient means the attempt fails immediately; retrying may
	// succeed.
	FaultTransient
	// FaultStraggler means the attempt completes with its latency
	// multiplied by the configured tail factor.
	FaultStraggler
	// FaultCrash means the model is dead: this attempt (and every attempt
	// that starts before the recovery window elapses) fails instantly.
	FaultCrash
)

// String renders the fault kind for logs and health reports.
func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultTransient:
		return "transient"
	case FaultStraggler:
		return "straggler"
	case FaultCrash:
		return "crash"
	default:
		return "unknown"
	}
}

// FaultConfig configures a Faulty wrapper. The zero value injects nothing.
type FaultConfig struct {
	// TransientRate is the probability an attempt fails transiently.
	TransientRate float64
	// StragglerRate is the probability an attempt straggles.
	StragglerRate float64
	// StragglerFactor multiplies a straggling attempt's latency
	// (default 8).
	StragglerFactor float64
	// CrashMTBF is the mean time between model crashes; 0 disables
	// crashes. Each attempt crashes with probability lat/CrashMTBF.
	CrashMTBF time.Duration
	// CrashRecovery is how long a crashed model stays dead (default 2s).
	// Both are in the one time base of the now and the latency passed to
	// Attempt: virtual time, in the serving runtime.
	CrashRecovery time.Duration
	// Seed, with each attempt's key, seeds that attempt's fault draws.
	Seed uint64
}

// Enabled reports whether any fault mode is active.
func (c FaultConfig) Enabled() bool {
	return c.TransientRate > 0 || c.StragglerRate > 0 || c.CrashMTBF > 0
}

// withDefaults fills unset tail/recovery parameters.
func (c FaultConfig) withDefaults() FaultConfig {
	if c.StragglerFactor <= 1 {
		c.StragglerFactor = 8
	}
	if c.CrashRecovery <= 0 {
		c.CrashRecovery = 2 * time.Second
	}
	return c
}

// Decision is the injected fault for one execution attempt.
type Decision struct {
	Kind FaultKind
	// LatencyFactor multiplies the attempt's fault-free latency; it is 1
	// unless Kind is FaultStraggler.
	LatencyFactor float64
}

// Faulty wraps a Model with deterministic fault injection. It implements
// Model by pure delegation — Predict stays deterministic and correct — and
// exposes Attempt for execution layers that want to draw per-attempt fault
// outcomes. Safe for concurrent use.
type Faulty struct {
	Model
	cfg FaultConfig

	// mu guards the crash window (crashedAt, downUntil).
	mu                   sync.Mutex
	crashedAt, downUntil time.Duration
}

// NewFaulty wraps m with the given fault configuration.
func NewFaulty(m Model, cfg FaultConfig) *Faulty {
	return &Faulty{Model: m, cfg: cfg.withDefaults()}
}

// Down reports whether an attempt starting at now would meet the model
// inside a crash-recovery window: false at the crash instant itself.
func (f *Faulty) Down(now time.Duration) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return now > f.crashedAt && now < f.downUntil
}

// Attempt draws the fault outcome for the execution attempt named key,
// starting at now, whose fault-free latency would be lat. The draws come
// from a stream of (Seed, key) alone; an attempt that starts inside a crash
// window fails with FaultCrash without drawing.
func (f *Faulty) Attempt(now, lat time.Duration, key uint64) Decision {
	if f.Down(now) {
		return Decision{Kind: FaultCrash, LatencyFactor: 1}
	}
	var src rng.Source
	src.Reseed(rng.Mix(f.cfg.Seed^0xfa017, key))
	if f.cfg.CrashMTBF > 0 {
		p := float64(lat) / float64(f.cfg.CrashMTBF)
		if p > 0.9 {
			p = 0.9
		}
		if src.Bool(p) {
			f.mu.Lock()
			f.crashedAt, f.downUntil = now, now+f.cfg.CrashRecovery
			f.mu.Unlock()
			return Decision{Kind: FaultCrash, LatencyFactor: 1}
		}
	}
	if f.cfg.TransientRate > 0 && src.Bool(f.cfg.TransientRate) {
		return Decision{Kind: FaultTransient, LatencyFactor: 1}
	}
	if f.cfg.StragglerRate > 0 && src.Bool(f.cfg.StragglerRate) {
		return Decision{Kind: FaultStraggler, LatencyFactor: f.cfg.StragglerFactor}
	}
	return Decision{Kind: FaultNone, LatencyFactor: 1}
}
