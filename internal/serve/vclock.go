package serve

import (
	"context"
	"sync"
	"time"

	"schemble/internal/dataset"
	"schemble/internal/trace"
)

// virtualClock runs from 0 and moves only in advance, and only while the
// runtime is quiet: every worker parked, on the clock or on an empty task
// queue, and the coordinator with nothing to take off, which it learns from
// the hand-offs the runtime reports through sent and idle. Timers due by an
// advance's end fire one at a time, in (instant, arming) order, each once
// the runtime is quiet again, so a run on it is the same run on any host.
type virtualClock struct {
	mu   sync.Mutex
	cond *sync.Cond
	at   time.Duration
	// armed lists the armed timers, in arming order. running counts the
	// workers not parked; toCoord the events and timer wakes posted to the
	// coordinator that a finished turn has not taken off; queued[k] the tasks
	// sent to model k and not taken, and idlers[k] its workers parked on the
	// queue.
	armed            []*virtualTimer
	running, toCoord int
	queued, idlers   []int
}

// virtualTimer is a virtual clock's timer. A worker's fires as that
// worker's wake, counting it running; the coordinator's as an event for it.
// What it sends is not read.
type virtualTimer struct {
	clk  *virtualClock
	ch   chan time.Time
	at   time.Duration
	woke *int // c.running or c.toCoord
}

func (t *virtualTimer) c() <-chan time.Time { return t.ch }

// newVirtualClock returns a clock for s, not yet started.
func newVirtualClock(s *Server) *virtualClock {
	c := &virtualClock{queued: make([]int, len(s.replicas)), idlers: make([]int, len(s.replicas))}
	c.cond = sync.NewCond(&c.mu)
	for _, n := range s.replicas {
		c.running += n
	}
	return c
}

func (c *virtualClock) now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.at
}

// newWaiter's timer is its worker's wake: arming it parks the worker.
func (c *virtualClock) newWaiter() *waiter {
	w := &waiter{timer: &virtualTimer{clk: c, ch: make(chan time.Time, 1), woke: &c.running}}
	w.left = func(target time.Duration) time.Duration { return target - c.now() }
	w.coarse = w.sleep
	return w
}

func (c *virtualClock) newTimer() timer {
	return &virtualTimer{clk: c, ch: make(chan time.Time, 1), woke: &c.toCoord}
}

func (c *virtualClock) sent(to, n int) {
	c.update(func() {
		if to == toCoordinator {
			c.toCoord += n
		} else {
			c.queued[to] += n
		}
	})
}

func (c *virtualClock) idle(k, n int) { c.update(func() { c.idlers[k] += n; c.running -= n }) }

func (c *virtualClock) update(change func()) {
	c.mu.Lock()
	change()
	c.cond.Broadcast()
	c.mu.Unlock()
}

// set arms or disarms the timer; a fire it drops is a wake no one will
// take.
func (t *virtualTimer) set(d time.Duration) {
	c := t.clk
	c.update(func() {
		c.disarm(t)
		select {
		case <-t.ch:
			*t.woke--
		default:
		}
		if d != never {
			t.at = c.at + d
			c.armed = append(c.armed, t)
			if t.woke == &c.running {
				c.running-- // a worker parks until its wake
			}
		}
	})
}

// disarm needs c.mu.
func (c *virtualClock) disarm(t *virtualTimer) {
	for i, a := range c.armed {
		if a == t {
			c.armed = append(c.armed[:i], c.armed[i+1:]...)
			return
		}
	}
}

// quiet reports, under c.mu, whether the runtime is quiescent.
func (c *virtualClock) quiet() bool {
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

// advance moves the clock d on and returns once the runtime is quiet at the
// new instant.
func (c *virtualClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	end := c.at + d
	for {
		for !c.quiet() {
			c.cond.Wait()
		}
		var next *virtualTimer
		for _, a := range c.armed {
			if a.at <= end && (next == nil || a.at < next.at) {
				next = a
			}
		}
		if next == nil {
			c.at = end
			return
		}
		c.disarm(next)
		c.at = max(c.at, next.at)
		*next.woke++
		next.ch <- time.Time{}
	}
}

// Replay runs tr through s, not yet started, in virtual time: on a clock
// that moves only while the runtime is quiet, each query submitted at its
// arrival's instant in its class, then an hour on, by which every query has
// resolved, and s stops. It returns the results in trace order. The same
// configuration and trace give the same results on any host, and model time
// costs no wall time.
func Replay(s *Server, tr *trace.Trace, samples []*dataset.Sample) []Result {
	c := newVirtualClock(s)
	s.clk = c
	s.Start(context.Background())
	chans := s.submitTrace(tr, samples, c.advance)
	c.advance(time.Hour)
	s.Stop()
	results := make([]Result, len(chans))
	for i, ch := range chans {
		results[i] = <-ch
	}
	return results
}

// submitTrace submits tr's queries to s, just started on a virtual clock,
// each once advance has moved the clock to its arrival's instant.
func (s *Server) submitTrace(tr *trace.Trace, samples []*dataset.Sample, advance func(time.Duration)) []<-chan Result {
	chans := make([]<-chan Result, len(tr.Arrivals))
	for i, a := range tr.Arrivals {
		advance(a.At - s.clk.now())
		chans[i] = s.SubmitClass(samples[a.SampleIdx], a.Deadline-a.At, a.Class)
	}
	return chans
}
