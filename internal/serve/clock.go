package serve

import "time"

// toCoordinator is the receiver clock.sent names for the coordinator's
// inbox; any other receiver is a model's task queue, by index.
const toCoordinator = -1

// clock is the runtime's one time line, in virtual time since its anchor.
// Every instant the runtime reads and every wait it makes goes through the
// Server's clock: arrivals and deadlines, latencies, each attempt's start
// and the waits it makes, the crash windows, the starved instrument and the
// coordinator's deadline timer. wallClock is the real one and the only
// place virtual time meets the wall clock. Replay and the in-package tests
// substitute a virtual clock (vclock.go) that moves only while the runtime
// is quiescent, which it learns from the hand-offs the runtime reports
// through sent and idle; the real clock ignores them.
type clock interface {
	now() time.Duration
	// newWaiter returns a wait for one worker goroutine's own use.
	newWaiter() *waiter
	// newTimer returns a disarmed timer for the coordinator, armed in
	// virtual spans.
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

// wallClock is the runtime's clock outside Replay and tests: virtual time
// is the wall time since anchor over scale (Config.TimeScale). It alone
// converts: now descales, a waiter's left turns a virtual target into the
// wall time still to go, so the tail sleep and tailGuard stay in wall time,
// and the coordinator's timer scales the span it is armed for.
type wallClock struct {
	anchor time.Time
	scale  float64
}

func newWallClock(scale float64) wallClock { return wallClock{anchor: wallNow(), scale: scale} }

// wallNow is the package's one wall-clock read.
func wallNow() time.Time {
	//schemble:wallclock the package's one wall-clock read: every instant the runtime takes, virtual time included, comes from here
	return time.Now()
}

func (c wallClock) now() time.Duration {
	return time.Duration(float64(wallNow().Sub(c.anchor)) / c.scale)
}

func (c wallClock) newWaiter() *waiter {
	w := &waiter{timer: newWallTimer(), tail: tailSleep}
	w.left = func(target time.Duration) time.Duration {
		return c.anchor.Add(time.Duration(float64(target) * c.scale)).Sub(wallNow())
	}
	w.coarse = w.sleep
	return w
}

func (c wallClock) newTimer() timer { return scaledTimer{newWallTimer(), c.scale} }
func (wallClock) sent(int, int)     {}
func (wallClock) idle(int, int)     {}

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

// scaledTimer is the coordinator's wall timer: set for a virtual span d,
// it fires d × scale of wall time later.
type scaledTimer struct {
	wallTimer
	scale float64
}

func (w scaledTimer) set(d time.Duration) {
	if d != never {
		d = time.Duration(float64(d) * w.scale)
	}
	w.wallTimer.set(d)
}
