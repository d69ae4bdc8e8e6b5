package serve

import (
	"time"

	"schemble/internal/ensemble"
)

// ToleranceConfig configures the fault-tolerant execution layer. Every
// mechanism is opt-in: the zero value disables all of them, and the
// runtime's behaviour is then bit-identical to the fault-free worker loop.
// DefaultTolerance returns a configuration with every mechanism on.
//
// All durations are in virtual (unscaled) time, like model latencies; the
// runtime applies Config.TimeScale itself.
type ToleranceConfig struct {
	// MaxRetries bounds how many times a failed attempt (transient error,
	// crash, panic) is retried before the task fails permanently. 0
	// disables retries.
	MaxRetries int
	// RetryBackoff is the base backoff before a retry; the delay doubles
	// per attempt and carries uniform jitter in [0, base). Defaults to
	// 4ms when retries are enabled.
	RetryBackoff time.Duration
	// HedgeFactor > 0 hedges straggling attempts: once an attempt is known
	// to straggle, a hedge attempt is issued after HedgeFactor × the
	// model's mean latency, and the first to finish wins. 0 disables
	// hedging. Only the fault injector marks an attempt as a straggler
	// (model.FaultStraggler), so without injected faults nothing hedges,
	// however long the host makes a task queue — and nothing retries either
	// unless Predict panics.
	HedgeFactor float64
	// BreakerThreshold > 0 opens a model's circuit breaker after that many
	// consecutive task failures; the scheduler then avoids the model until
	// a half-open probe succeeds. 0 disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker waits before allowing a
	// half-open probe. Defaults to 200ms when the breaker is enabled.
	BreakerCooldown time.Duration
	// TaskTimeout caps each attempt at its request's deadline: an attempt
	// that cannot finish in time is abandoned and counted as a timeout
	// fault instead of occupying the worker past the point of usefulness.
	TaskTimeout bool
	// Degrade resolves a committed request at its deadline with whatever
	// subset outputs have completed (≥1), flagged Result.Degraded, instead
	// of letting it run to a late deadline miss.
	Degrade bool
}

// DefaultTolerance enables every mitigation with production defaults.
func DefaultTolerance() ToleranceConfig {
	return ToleranceConfig{
		MaxRetries:       2,
		RetryBackoff:     4 * time.Millisecond,
		HedgeFactor:      1.5,
		BreakerThreshold: 5,
		BreakerCooldown:  200 * time.Millisecond,
		TaskTimeout:      true,
		Degrade:          true,
	}
}

// withDefaults fills dependent parameters of enabled mechanisms.
func (c ToleranceConfig) withDefaults() ToleranceConfig {
	if c.MaxRetries > 0 && c.RetryBackoff <= 0 {
		c.RetryBackoff = 4 * time.Millisecond
	}
	if c.BreakerThreshold > 0 && c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 200 * time.Millisecond
	}
	return c
}

// Breaker states. A breaker is per model: closed (healthy), open (failing;
// the scheduler avoids it), half-open (probing recovery).
const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

// breakerName renders a breaker state for health reports.
func breakerName(state int) string {
	switch state {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// breaker is a per-model circuit breaker over task outcomes. Timestamps
// are virtual durations since server start (the coordinator's clock). The
// coordinator both records outcomes and reads the blocked mask, but Stats
// snapshots race it, hence the state lives behind the Server's breakerMu.
//
// closed: outcomes tracked; BreakerThreshold consecutive failures → open.
// open: blocked from scheduling until the cooldown elapses → half-open.
// half-open: schedulable; the first recorded outcome decides — success →
// closed, failure → open again. (Several probes may be committed inside
// one half-open window; any recorded failure re-opens.)
type breakerState struct {
	state    int
	consec   int           // consecutive failures while closed
	openedAt time.Duration // virtual time the breaker last opened
	trips    uint64        // times the breaker opened
}

// record folds one task outcome into model k's breaker.
func (s *Server) breakerRecord(k int, ok bool, now time.Duration) {
	if s.tol.BreakerThreshold <= 0 {
		return
	}
	s.breakerMu.Lock()
	defer s.breakerMu.Unlock()
	b := &s.breakers[k]
	switch {
	case ok:
		if b.state != breakerClosed {
			b.state = breakerClosed
		}
		b.consec = 0
	case b.state == breakerClosed:
		b.consec++
		if b.consec >= s.tol.BreakerThreshold {
			b.state = breakerOpen
			b.openedAt = now
			b.trips++
		}
	default:
		// Failure while open or half-open: (re-)open and restart the
		// cooldown. A failed half-open probe counts as a fresh trip.
		if b.state == breakerHalfOpen {
			b.trips++
		}
		b.state = breakerOpen
		b.openedAt = now
		b.consec = s.tol.BreakerThreshold
	}
}

// breakerBlocked returns the mask of models the scheduler must avoid at
// virtual time now, transitioning open breakers whose cooldown elapsed to
// half-open (which unblocks them for a probe).
func (s *Server) breakerBlocked(now time.Duration) ensemble.Subset {
	if s.tol.BreakerThreshold <= 0 {
		return ensemble.Empty
	}
	s.breakerMu.Lock()
	defer s.breakerMu.Unlock()
	var blocked ensemble.Subset
	for k := range s.breakers {
		b := &s.breakers[k]
		if b.state == breakerOpen {
			if now-b.openedAt >= s.tol.BreakerCooldown {
				b.state = breakerHalfOpen
			} else {
				blocked = blocked.With(k)
			}
		}
	}
	return blocked
}
