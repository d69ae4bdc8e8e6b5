package serve

import (
	"testing"
	"time"

	"schemble/internal/ensemble"
	"schemble/internal/model"
)

// alwaysFail fails every attempt.
var alwaysFail = model.FaultConfig{TransientRate: 1, Seed: 9}

// failBlockedRig is the frozen rig with model 1 blocked throughout, so every
// query commits onto model 0 alone, and every attempt failing.
func failBlockedRig(t *testing.T) *gateRig {
	return newFrozenRig(t, 2, ensemble.Single(1), func(c *Config) { c.Faults = alwaysFail })
}

// TestBreakerTransitions drives the closed -> open -> half-open state
// machine through a full fail/cooldown/probe-fail/cooldown/probe-succeed
// cycle, recording outcomes at the instants of the frozen rig's clock and
// reading the breaker the way the coordinator's pass and Stats do.
func TestBreakerTransitions(t *testing.T) {
	rig := newFrozenRig(t, 2, ensemble.Empty)
	s := rig.srv
	record := func(ok bool) { s.breakerRecord(0, ok, s.Now()) }
	blocked := func() ensemble.Subset { return s.breakerBlocked(s.Now()) }
	health := func() ModelHealth { return s.Stats().Models[0] }

	if got := blocked(); got != ensemble.Empty || health().Breaker != "closed" {
		t.Fatalf("fresh breakers: blocked %v, model 0 %q", got, health().Breaker)
	}
	// A success resets the consecutive-failure count.
	for i := 1; i < breakerThreshold; i++ {
		record(false)
	}
	record(true)
	for i := 1; i < breakerThreshold; i++ {
		record(false)
	}
	rig.clk.advance(t, time.Millisecond)
	if got, h := blocked(), health(); got != ensemble.Empty || h.Breaker != "closed" || h.ConsecutiveFailures != breakerThreshold-1 {
		t.Fatalf("below threshold: blocked %v, %q after %d failures", got, h.Breaker, h.ConsecutiveFailures)
	}
	// The threshold-th consecutive failure opens it.
	record(false)
	rig.clk.advance(t, breakerCooldown/2)
	if got := blocked(); got != ensemble.Single(0) {
		t.Fatalf("after the threshold: blocked %v, want model 0 alone", got)
	}
	if h := health(); h.Breaker != "open" || h.BreakerTrips != 1 || s.Stats().Healthy() {
		t.Fatalf("after the threshold: %q, %d trips, healthy %v", h.Breaker, h.BreakerTrips, s.Stats().Healthy())
	}
	// Cooldown elapsed: half-open, schedulable again for a probe.
	rig.clk.advance(t, breakerCooldown/2)
	if got, h := blocked(), health(); got != ensemble.Empty || h.Breaker != "half-open" {
		t.Fatalf("after the cooldown: blocked %v, %q", got, h.Breaker)
	}
	// The probe fails: re-open, restart the cooldown, count the trip.
	record(false)
	rig.clk.advance(t, breakerCooldown-time.Millisecond)
	if got, h := blocked(), health(); !got.Contains(0) || h.BreakerTrips != 2 {
		t.Fatalf("after a failed probe: blocked %v, %d trips, want model 0 and 2", got, h.BreakerTrips)
	}
	// Second cooldown, successful probe: closed.
	rig.clk.advance(t, time.Millisecond)
	if got := blocked(); got != ensemble.Empty {
		t.Fatalf("still blocked after the second cooldown: %v", got)
	}
	record(true)
	if got, h := blocked(), health(); got != ensemble.Empty || h.Breaker != "closed" || h.ConsecutiveFailures != 0 {
		t.Fatalf("after a successful probe: blocked %v, %q, %d failures", got, h.Breaker, h.ConsecutiveFailures)
	}
}

// TestBreakerDisabled: with the tolerance layer off nothing is recorded and
// nothing blocked.
func TestBreakerDisabled(t *testing.T) {
	s := &Server{tol: ToleranceConfig{}, breakers: make([]breakerState, 1)}
	for i := 0; i < 10; i++ {
		s.breakerRecord(0, false, 0)
	}
	if got := s.breakerBlocked(time.Hour); got != ensemble.Empty {
		t.Fatalf("disabled breaker blocked %v", got)
	}
	if s.breakers[0].state != breakerClosed || s.breakers[0].consec != 0 {
		t.Errorf("disabled breaker mutated: %+v", s.breakers[0])
	}
}

// TestBreakerCooldownOnFrozenClock runs the breaker off real task failures:
// model 1 stays blocked, so every query commits onto model 0 alone, whose
// every attempt fails. Stats reads "off" with the layer off and "closed"
// until the threshold-th failed task; the breaker then stays open until
// exactly breakerCooldown later — a pass one nanosecond earlier still
// finds it open — and half-opens on the first pass at that instant. The
// probes that pass commits fail, which re-opens it as one fresh trip.
func TestBreakerCooldownOnFrozenClock(t *testing.T) {
	if b := newServer(t, artifacts(t)).Stats().Models[0].Breaker; b != "off" {
		t.Fatalf("breaker %q with the tolerance layer off, want off", b)
	}
	rig := failBlockedRig(t)
	s := rig.srv
	health := func() ModelHealth {
		rig.clk.advance(t, 0)
		return s.Stats().Models[0]
	}
	// at moves the clock to virtual instant v (the rig runs unscaled).
	at := func(v time.Duration) { rig.clk.advance(t, v-s.Now()) }

	for i := 0; i < breakerThreshold; i++ {
		if h := health(); h.Breaker != "closed" || h.ConsecutiveFailures != i {
			t.Fatalf("after %d failed tasks: %q, %d consecutive failures", i, h.Breaker, h.ConsecutiveFailures)
		}
		rig.arrive()
		// Every attempt fails and retries twice: well under 100ms.
		rig.clk.advance(t, 100*time.Millisecond)
		if res := rig.result(t, i); !res.Missed {
			t.Fatalf("request %d on the failing model: %+v, want a miss", i, res)
		}
	}
	s.breakerMu.Lock()
	opened := s.breakers[0].openedAt
	s.breakerMu.Unlock()
	if h := health(); h.Breaker != "open" || h.BreakerTrips != 1 || s.Stats().Healthy() {
		t.Fatalf("after the threshold: %q, %d trips, healthy %v", h.Breaker, h.BreakerTrips, s.Stats().Healthy())
	}

	at(opened + breakerCooldown - 1)
	rig.arrive()
	if h, st := health(), s.Stats(); h.Breaker != "open" || st.Buffered != 1 || st.InFlight != 0 {
		t.Fatalf("1ns before the cooldown ends: %q, buffered %d, in flight %d; want open, the arrival buffered",
			h.Breaker, st.Buffered, st.InFlight)
	}
	at(opened + breakerCooldown)
	rig.arrive()
	if h, st := health(), s.Stats(); h.Breaker != "half-open" || st.Buffered != 0 || st.InFlight != 2 {
		t.Fatalf("at the cooldown's end: %q, buffered %d, in flight %d; want half-open, both probes committed",
			h.Breaker, st.Buffered, st.InFlight)
	}
	rig.clk.advance(t, 100*time.Millisecond)
	if h := health(); h.Breaker != "open" || h.BreakerTrips != 2 {
		t.Fatalf("after the probes failed: %q, %d trips; want open, 2", h.Breaker, h.BreakerTrips)
	}
}

// TestFaultRetryStopsAtDeadline: a failed attempt retries only when its
// backoff ends inside the request's deadline. With a budget shorter than the
// first backoff the task fails at once, at the instant of its one attempt;
// with room, it retries the full maxRetries times.
func TestFaultRetryStopsAtDeadline(t *testing.T) {
	rig := failBlockedRig(t)
	rig.arriveWithin(retryBackoff - 1)
	rig.clk.advance(t, 0)
	if len(rig.results[0]) != 1 {
		t.Fatal("a task with no time for a retry did not fail at its attempt")
	}
	if m := rig.srv.Stats().Models[0]; m.Retries != 0 || m.Timeouts != 0 || m.Failures != 1 {
		t.Fatalf("no time for a retry: %d retries, %d timeouts, %d failures; want 0, 0, 1", m.Retries, m.Timeouts, m.Failures)
	}
	rig.arrive()
	rig.clk.advance(t, time.Second)
	if m := rig.srv.Stats().Models[0]; m.Retries != maxRetries || m.Failures != 2 {
		t.Fatalf("room for retries: %d retries, %d failures; want %d, 2", m.Retries, m.Failures, maxRetries)
	}
}
