package serve

import (
	"context"
	"math"
	"time"
)

// tailGuard is how long before its target a wait leaves the runtime timer
// for the high-resolution OS sleep. An idle Go M sleeps in the netpoller,
// which on Linux takes whole milliseconds and rounds a sub-millisecond
// remainder up to one, so a runtime timer for d fires at d + U(0, 1 ms).
// The guard therefore has to exceed 1 ms; the 0.2 ms on top covers the
// goroutine wake-up after the coarse timer fires. Waits no longer than the
// guard stay on the runtime timer alone (DESIGN.md "Wall-clock waits").
const tailGuard = 1200 * time.Microsecond

// never is the duration of a wake that is not armed.
const never = time.Duration(math.MaxInt64)

// wakeKind names which of an attempt's known instants ends its wait.
type wakeKind uint8

const (
	wakePrimary wakeKind = iota // the attempt's drawn latency ends
	wakeHedge                   // the hedge attempt's latency ends first
	wakeCutoff                  // the deadline budget runs out first
)

// earliestWake picks the wait that ends an attempt: the primary's drawn
// duration, the hedge's, or the deadline cutoff, with never for a wake that
// is not armed. All three are known before the wait starts, so one wait to
// the earliest replaces a race between three timers. A tie goes to the
// attempt that completes — primary, then hedge, then cutoff — which is
// what arming the hedge and the cutoff only when strictly earlier than the
// primary meant.
func earliestWake(primary, hedge, cutoff time.Duration) (time.Duration, wakeKind) {
	d, kind := primary, wakePrimary
	if hedge < d {
		d, kind = hedge, wakeHedge
	}
	if cutoff < d {
		d, kind = cutoff, wakeCutoff
	}
	return d, kind
}

// waiter is one worker goroutine's wait on the clock: a single reused timer
// plus, where the platform has one, a high-resolution tail sleep. It is
// owned by its goroutine and not safe for concurrent use. Between uses the
// timer is disarmed. The clock and both sleeps are fields: the server's
// clock builds the waiter, and a test can run until on a clock of its own.
type waiter struct {
	timer timer
	// left is how long until the virtual instant target, negative once it
	// has passed, in the time the sleeps below take: wall time on the wall
	// clock.
	left func(target time.Duration) time.Duration
	// coarse waits d on the timer; false means ctx ended first.
	coarse func(ctx context.Context, d time.Duration) bool
	// tail blocks the thread for up to d on the OS's high-resolution
	// sleep and reports whether it can be called again for what is left
	// (an interrupted sleep can, a failed one cannot); nil where the
	// platform or the clock has none.
	tail func(d time.Duration) bool
}

// sleep waits d on the timer; false means ctx ended first.
func (w *waiter) sleep(ctx context.Context, d time.Duration) bool {
	w.timer.set(d)
	select {
	case <-w.timer.c():
		return true
	case <-ctx.Done():
		w.timer.set(never)
		return false
	}
}

// until blocks until the virtual instant target and never returns before
// it; over is how far past it the wait returned, in left's time, and alive
// is false when ctx ended first. A wait longer than tailGuard sleeps on the
// runtime timer up to the guard and finishes on the tail sleep, re-issued
// for what is left while it is interrupted short of the target. ctx is
// observed before and after every sleep; the tail itself is
// uninterruptible, and at most tailGuard long. Everything else — short
// waits, platforms without a tail, whatever a failed tail left over — is
// the runtime timer alone.
func (w *waiter) until(ctx context.Context, target time.Duration) (over time.Duration, alive bool) {
	tailing := false
	for {
		if ctx.Err() != nil {
			return 0, false
		}
		rem := w.left(target)
		switch {
		case rem <= 0:
			return -rem, true
		case w.tail != nil && rem > tailGuard:
			if !w.coarse(ctx, rem-tailGuard) {
				return 0, false
			}
			tailing = true
		case tailing:
			tailing = w.tail(rem)
		default:
			if !w.coarse(ctx, rem) {
				return 0, false
			}
		}
	}
}
