package serve

import (
	"time"

	"schemble/internal/ensemble"
)

// The fault-tolerant execution layer is always on. Every mitigation runs:
//
//   - bounded retries: a failed attempt (transient error, crash, panic)
//     retries up to maxRetries times after a jittered exponential backoff
//     from retryBackoff, never past its request's deadline;
//   - per-attempt timeouts: an attempt that cannot finish by its request's
//     deadline is abandoned and counted as a timeout fault instead of
//     occupying the worker past the point of usefulness;
//   - hedging: an attempt still running hedgeFactor × the model's live mean
//     latency after it started gets a fresh attempt issued then, and the
//     first to finish wins — the point where a runtime sees no answer yet.
//     With the models' few percent of latency jitter a normal attempt never
//     gets there, however long the host makes a task queue;
//   - a per-model circuit breaker: breakerThreshold consecutive task
//     failures open it, the scheduler avoids the model for breakerCooldown,
//     then a half-open probe decides;
//   - partial-ensemble degradation: a committed request whose deadline
//     arrives with some (not all) subset outputs resolves with them,
//     flagged Result.Degraded, instead of missing.
//
// Its parameters are these constants. Durations are virtual time, like
// model latencies; only the wall clock scales them (Config.TimeScale).
const (
	maxRetries       = 2
	retryBackoff     = 4 * time.Millisecond
	hedgeFactor      = 1.5
	breakerThreshold = 5
	breakerCooldown  = 200 * time.Millisecond
)

// ToleranceConfig is accepted and ignored: the layer has no settings.
type ToleranceConfig struct{}

// DefaultTolerance is accepted and ignored, like ToleranceConfig.
func DefaultTolerance() ToleranceConfig { return ToleranceConfig{} }

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
// closed: outcomes tracked; breakerThreshold consecutive failures → open.
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
	s.breakerMu.Lock()
	defer s.breakerMu.Unlock()
	b := &s.breakers[k]
	switch {
	case ok:
		b.state = breakerClosed
		b.consec = 0
	case b.state == breakerClosed:
		b.consec++
		if b.consec >= breakerThreshold {
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
		b.consec = breakerThreshold
	}
}

// breakerBlocked returns the mask of models the scheduler must avoid at
// virtual time now, transitioning open breakers whose cooldown elapsed to
// half-open (which unblocks them for a probe).
func (s *Server) breakerBlocked(now time.Duration) ensemble.Subset {
	s.breakerMu.Lock()
	defer s.breakerMu.Unlock()
	var blocked ensemble.Subset
	for k := range s.breakers {
		b := &s.breakers[k]
		if b.state == breakerOpen {
			if now-b.openedAt >= breakerCooldown {
				b.state = breakerHalfOpen
			} else {
				blocked = blocked.With(k)
			}
		}
	}
	return blocked
}
