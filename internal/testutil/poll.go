// Package testutil holds helpers shared by the repo's test suites. Its
// flagship is Poll, the approved replacement for bare time.Sleep in
// tests: the sleeptest analyzer rejects fixed sleeps in _test.go files
// because a sleep long enough to be reliable is slow and a short one is
// flaky under race-detector load, while a condition polled against a
// deadline is exactly as slow as the runtime actually is.
package testutil

import (
	"time"
)

// PollInterval is the default spacing between condition checks.
const PollInterval = 2 * time.Millisecond

// TB is the subset of testing.TB Poll needs, split out so this package
// stays importable from non-test helpers.
type TB interface {
	Helper()
	Fatalf(format string, args ...interface{})
}

// Poll calls cond until it returns true or the timeout elapses, and
// fails the test fatally on timeout. The condition is evaluated once
// before any wait, so an already-true condition costs nothing.
func Poll(t TB, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		if cond() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("condition %q not reached within %v", what, timeout)
			// Fatalf never returns under testing.T; the return guards
			// fakes whose Fatalf records and resumes.
			return
		}
		time.Sleep(PollInterval)
	}
}

// Wait polls like Poll but reports the outcome instead of failing, for
// conditions that are allowed to time out (e.g. goroutine-count
// settling, where the caller formats its own diagnostic).
func Wait(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for {
		if cond() {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(PollInterval)
	}
}
