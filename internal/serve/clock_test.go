package serve

import (
	"context"
	"sync"
	"testing"
	"time"
)

// testClock is the clock in-package tests put a Server on. It keeps what the
// runtime reports through sent and idle: how many workers are not parked,
// how many events the coordinator has yet to take off, and per model how
// many tasks are queued and how many workers are parked on the queue. From
// those it knows when the runtime is quiet — every worker parked, on the
// clock, on an empty queue or inside a model the test holds (hold), and the
// coordinator with nothing to take off — without reading a goroutine stack
// or sleeping.
//
// A frozen clock's time moves only in advance, and only while the runtime is
// quiet: timers due by then fire one at a time, in (instant, arming) order,
// each once the runtime is quiet again, so a run on it is the same run on
// any host. An unfrozen one reads and waits on the wall clock and only
// counts.
type testClock struct {
	frozen bool

	mu   sync.Mutex
	cond *sync.Cond
	at   time.Time
	// armed lists the frozen clock's armed timers, in arming order.
	armed []*testTimer
	// running counts the workers not parked; toCoord the events and timer
	// wakes posted to the coordinator that a finished turn has not taken
	// off; queued[k] the tasks sent to model k and not taken, and idlers[k]
	// its workers parked on the queue.
	running, toCoord int
	queued, idlers   []int
	// workers is how many workers the server runs.
	workers int
}

// testTimer is one of the frozen clock's timers. A worker's fires as that
// worker's wake; the coordinator's, as an event for it.
type testTimer struct {
	clk    *testClock
	ch     chan time.Time
	at     time.Time
	worker bool
}

func (t *testTimer) c() <-chan time.Time { return t.ch }

// useTestClock puts s, not yet started, on a new test clock.
func useTestClock(s *Server, frozen bool) *testClock {
	c := &testClock{frozen: frozen, at: time.Unix(1_000_000_000, 0),
		queued: make([]int, len(s.replicas)), idlers: make([]int, len(s.replicas))}
	c.cond = sync.NewCond(&c.mu)
	for _, n := range s.replicas {
		c.workers += n
	}
	c.running = c.workers
	s.clk = c
	return c
}

func (c *testClock) now() time.Time {
	if !c.frozen {
		return wallClock{}.now()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.at
}

func (c *testClock) newWaiter() *waiter {
	if !c.frozen {
		return wallClock{}.newWaiter()
	}
	return &waiter{left: func(target time.Time) time.Duration { return target.Sub(c.now()) }, coarse: c.sleep}
}

func (c *testClock) newTimer() timer {
	if !c.frozen {
		return wallClock{}.newTimer()
	}
	return &testTimer{clk: c, ch: make(chan time.Time, 1)}
}

func (c *testClock) sent(to, n int) {
	c.update(func() {
		if to == toCoordinator {
			c.toCoord += n
		} else {
			c.queued[to] += n
		}
	})
}

func (c *testClock) idle(k, n int) {
	c.update(func() {
		c.idlers[k] += n
		c.running -= n
	})
}

// hold counts a worker parking inside a model the test holds (n = 1); the
// test counts it woken (n = -1) before it lets the model go.
func (c *testClock) hold(n int) { c.update(func() { c.running -= n }) }

// allIdle reports whether every worker is parked on its task queue: none is
// still on its way there from its last task, or from the start.
func (c *testClock) allIdle() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, i := range c.idlers {
		n += i
	}
	return n == c.workers
}

func (c *testClock) update(change func()) {
	c.mu.Lock()
	change()
	c.cond.Broadcast()
	c.mu.Unlock()
}

// sleep is a worker's wait on the frozen clock: the worker parks until its
// timer fires.
func (c *testClock) sleep(ctx context.Context, d time.Duration) bool {
	t := &testTimer{clk: c, ch: make(chan time.Time, 1), worker: true}
	c.update(func() {
		c.arm(t, d)
		c.running--
	})
	select {
	case <-t.ch:
		return true
	case <-ctx.Done():
		return false
	}
}

// set arms or disarms the coordinator's timer; a fire it drops is an event
// the coordinator will never take off.
func (t *testTimer) set(d time.Duration) {
	c := t.clk
	c.update(func() {
		c.disarm(t)
		select {
		case <-t.ch:
			c.toCoord--
		default:
		}
		if d != never {
			c.arm(t, d)
		}
	})
}

// arm and disarm need c.mu.
func (c *testClock) arm(t *testTimer, d time.Duration) {
	t.at = c.at.Add(d)
	c.armed = append(c.armed, t)
}

func (c *testClock) disarm(t *testTimer) {
	for i, a := range c.armed {
		if a == t {
			c.armed = append(c.armed[:i], c.armed[i+1:]...)
			return
		}
	}
}

// quiet reports, under c.mu, whether the runtime is quiescent.
func (c *testClock) quiet() bool {
	if c.running != 0 || c.toCoord != 0 {
		return false
	}
	for k, n := range c.queued {
		if n > 0 && c.idlers[k] > 0 {
			return false
		}
	}
	return true
}

// settle waits, under c.mu, until the runtime is quiet, and fails the test
// if it is not within rigWait.
func (c *testClock) settle(t testing.TB) {
	t.Helper()
	stuck, done := false, make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-time.After(rigWait):
			c.update(func() { stuck = true })
		case <-done:
		}
	}()
	for !c.quiet() {
		if stuck {
			t.Fatalf("the runtime never went quiet: %d workers running, %d events for the coordinator, tasks queued %v, workers idle %v",
				c.running, c.toCoord, c.queued, c.idlers)
		}
		c.cond.Wait()
	}
}

// advance moves the frozen clock d on and returns once the runtime is quiet
// at the new instant.
func (c *testClock) advance(t testing.TB, d time.Duration) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	end := c.at.Add(d)
	for {
		c.settle(t)
		var next *testTimer
		for _, a := range c.armed {
			if !a.at.After(end) && (next == nil || a.at.Before(next.at)) {
				next = a
			}
		}
		if next == nil {
			break
		}
		c.disarm(next)
		if next.at.After(c.at) {
			c.at = next.at
		}
		if next.worker {
			c.running++
		} else {
			c.toCoord++
		}
		next.ch <- c.at
	}
	c.at = end
}
