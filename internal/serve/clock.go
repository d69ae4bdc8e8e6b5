package serve

import "time"

// toCoordinator is the receiver clock.sent names for the coordinator's
// inbox; any other receiver is a model's task queue, by index.
const toCoordinator = -1

// clock is the runtime's one view of the wall clock. Every instant the
// runtime reads and every wait it makes on one goes through the Server's
// clock: the Start anchor, arrivals and deadlines, virtual time and
// latencies, each attempt's start and the waits it makes, the crash
// windows, the starved instrument and the coordinator's deadline timer.
// wallClock is the real one. Replay and the in-package tests substitute a
// virtual clock (vclock.go) that moves only while the runtime is quiescent,
// which it learns from the hand-offs the runtime reports through sent and
// idle; the real clock ignores them.
type clock interface {
	now() time.Time
	// newWaiter returns a wait for one worker goroutine's own use.
	newWaiter() *waiter
	// newTimer returns a disarmed timer for the coordinator.
	newTimer() timer
	// sent counts n messages about to be posted to receiver to — the
	// coordinator (toCoordinator) or model to's task queue; negative n
	// counts them taken off, or taken back. The coordinator counts the
	// events of a turn, and the timer's wake, taken off once the turn ends.
	sent(to, n int)
	// idle counts a worker of model k parking on its empty task queue
	// (n = 1) or woken from it (n = -1).
	idle(k, n int)
}

// timer is a reusable one-shot timer.
type timer interface {
	c() <-chan time.Time
	// set arms the timer to fire d from now, or disarms it when d is never;
	// either way an earlier arming and a fire not yet taken are dropped.
	set(d time.Duration)
}

// wallClock is the runtime's clock outside tests.
type wallClock struct{}

func (wallClock) now() time.Time {
	//schemble:wallclock the package's one wall-clock read: every instant the runtime takes, virtual time included, comes from here
	return time.Now()
}

func (c wallClock) newWaiter() *waiter {
	w := &waiter{timer: newWallTimer(), tail: tailSleep}
	w.left = func(target time.Time) time.Duration { return target.Sub(c.now()) }
	w.coarse = w.sleep
	return w
}

func (wallClock) newTimer() timer { return newWallTimer() }
func (wallClock) sent(int, int)   {}
func (wallClock) idle(int, int)   {}

// wallTimer is a runtime timer. Under go.mod's language version a fire
// that races a stop stays in the channel, so set drains it.
type wallTimer struct{ t *time.Timer }

func newWallTimer() wallTimer {
	w := wallTimer{time.NewTimer(time.Hour)}
	w.set(never)
	return w
}

func (w wallTimer) c() <-chan time.Time { return w.t.C }

func (w wallTimer) set(d time.Duration) {
	if !w.t.Stop() {
		select {
		case <-w.t.C:
		default:
		}
	}
	if d != never {
		w.t.Reset(d)
	}
}
