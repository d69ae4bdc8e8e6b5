package serve

import (
	"fmt"
	"testing"
	"time"
)

// testClock is the clock in-package tests put a Server on: the virtual
// clock, frozen, or the server's wall clock with the virtual clock's counts
// of what the runtime reports through sent and idle. Both modes know from
// those counts when the runtime is quiet, and when every worker is parked
// (allIdle), counting a worker parked inside a model the test holds (hold)
// as parked.
type testClock struct {
	*virtualClock
	wall   wallClock
	frozen bool
	// workers is how many workers the server runs.
	workers int
}

// useTestClock puts s, not yet started, on a new test clock.
func useTestClock(s *Server, frozen bool) *testClock {
	c := &testClock{virtualClock: newVirtualClock(s), wall: s.wall, frozen: frozen}
	c.workers = c.running // every worker starts out running
	s.clk = c
	return c
}

func (c *testClock) now() time.Duration {
	if !c.frozen {
		return c.wall.now()
	}
	return c.virtualClock.now()
}

func (c *testClock) newWaiter() *waiter {
	if !c.frozen {
		return c.wall.newWaiter()
	}
	return c.virtualClock.newWaiter()
}

func (c *testClock) newTimer() timer {
	if !c.frozen {
		return c.wall.newTimer()
	}
	return c.virtualClock.newTimer()
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

// advance moves the frozen clock d on and returns once the runtime is quiet
// at the new instant. A runtime that has not got there within rigWait
// never will: the watchdog panics with what it was waiting for, which ends
// the test binary with every goroutine's stack.
func (c *testClock) advance(t testing.TB, d time.Duration) {
	t.Helper()
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-time.After(rigWait):
			c.mu.Lock()
			defer c.mu.Unlock()
			panic(fmt.Sprintf("%s: the runtime never went quiet: %d workers running, %d events for the coordinator, tasks queued %v, workers idle %v",
				t.Name(), c.running, c.toCoord, c.queued, c.idlers))
		case <-done:
		}
	}()
	c.virtualClock.advance(d)
}
