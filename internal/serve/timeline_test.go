package serve

import (
	"context"
	"sync"
	"testing"
	"time"

	"schemble/internal/core"
	"schemble/internal/dataset"
	"schemble/internal/engine"
	"schemble/internal/ensemble"
	"schemble/internal/model"
	"schemble/internal/rng"
)

// lateClock is a clock on which the host wakes every wait late late: time
// passes only inside a waiter's sleeps, each landing late past what it asked
// for, and in the test's own steps while the worker is parked. So where a
// task's wait is aimed, and when the replica counts as free, is the code's
// choice and not the host's.
type lateClock struct {
	mu   sync.Mutex
	at   time.Duration
	late time.Duration
	// targets lists the instant each wait asked to reach, in order.
	targets []time.Duration
	// parked receives each time the worker parks on its empty queue.
	parked chan struct{}
}

func newLateClock(late time.Duration) *lateClock {
	return &lateClock{late: late, parked: make(chan struct{}, 8)}
}

func (c *lateClock) now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.at
}

// step moves the clock d on; the test calls it only while the worker is
// parked or not yet started.
func (c *lateClock) step(d time.Duration) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.at += d
	return c.at
}

func (c *lateClock) newWaiter() *waiter {
	w := newWallClock(1).newWaiter()
	w.left = func(target time.Duration) time.Duration { return target - c.now() }
	w.coarse = func(_ context.Context, d time.Duration) bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.targets = append(c.targets, c.at+d)
		c.at += d + c.late
		return true
	}
	w.tail = nil
	return w
}

func (c *lateClock) newTimer() timer { return newWallClock(1).newTimer() }
func (c *lateClock) sent(int, int)   {}

func (c *lateClock) idle(_, n int) {
	if n > 0 {
		c.parked <- struct{}{}
	}
}

// target is the target of wait i, or of the latest wait when i is -1.
func (c *lateClock) target(t *testing.T, i int) time.Duration {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	if i < 0 {
		i += len(c.targets)
	}
	if i < 0 || i >= len(c.targets) {
		t.Fatalf("wait %d was not made; %d were", i, len(c.targets))
	}
	return c.targets[i]
}

// waits is how many waits were made.
func (c *lateClock) waits() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.targets)
}

// fixedModel draws one latency every time and records when Predict runs:
// the instant the attempt's wait returned.
type fixedModel struct {
	model.Model
	lat      time.Duration
	clk      *lateClock
	panics   bool
	mu       sync.Mutex
	returned []time.Duration
}

func (m *fixedModel) SampleLatency(*rng.Source) time.Duration { return m.lat }

func (m *fixedModel) Predict(*dataset.Sample) model.Output {
	m.mu.Lock()
	m.returned = append(m.returned, m.clk.now())
	m.mu.Unlock()
	if m.panics {
		panic("synthetic model failure")
	}
	return model.Output{}
}

// timelineRig is one replica of one model, driven by hand: the test queues
// tasks and reads the completion events the worker posts.
type timelineRig struct {
	s   *Server
	clk *lateClock
	m   *fixedModel
}

const (
	timelineDraw = 10 * time.Millisecond
	timelineLate = 3 * time.Millisecond
)

func newTimelineRig(t *testing.T, tweak func(*Config, *fixedModel)) *timelineRig {
	clk := newLateClock(timelineLate)
	models := model.TextMatchingModels(55)[:1]
	m := &fixedModel{Model: models[0], lat: timelineDraw, clk: clk}
	cfg := Config{
		Ensemble:  ensemble.New(dataset.Classification, []model.Model{m}, &ensemble.Average{}, nil),
		Scheduler: &core.DP{Delta: 0.01},
		Rewarder:  sizeRewarder{},
		Seed:      1,
	}
	tweak(&cfg, m)
	s := New(cfg)
	s.clk = clk
	return &timelineRig{s: s, clk: clk, m: m}
}

// start runs the replica until the test ends.
func (g *timelineRig) start(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		g.s.worker(ctx, 0, 0)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
}

// queue puts a task on the model's queue as Commit would, sent at sent, for
// a request due at deadline.
func (g *timelineRig) queue(sent, deadline time.Duration) {
	r := &request{seq: uint64(len(g.s.taskCh[0]) + 1), Query: engine.Query{Deadline: deadline}}
	r.live.Store(1) // committed onto model 0
	g.s.taskCh[0] <- &task{req: r, k: 0, sent: sent}
}

// done is the next completion event the worker posts.
func (g *timelineRig) done(t *testing.T) event {
	t.Helper()
	select {
	case e := <-g.s.events:
		return e
	case <-time.After(rigWait):
		t.Fatal("the worker posted no completion")
	}
	return event{}
}

func (g *timelineRig) awaitParked(t *testing.T) {
	t.Helper()
	select {
	case <-g.clk.parked:
	case <-time.After(rigWait):
		t.Fatal("the worker never parked")
	}
}

// TestStagedTaskStartsWhenReplicaFrees drives one replica on a clock whose
// host wakes every wait 3 ms late. A task already queued when the replica
// frees starts at the previous wait's target, so its own target is that
// plus its draw, and the lateness is not billed to the model; a task
// handed to the parked replica starts when the replica takes it. No wait
// returns before its target.
func TestStagedTaskStartsWhenReplicaFrees(t *testing.T) {
	g := newTimelineRig(t, func(*Config, *fixedModel) {})
	t0 := g.clk.now()
	far := t0 + time.Hour
	g.queue(t0, far)
	g.queue(t0, far)
	g.start(t)

	first := g.done(t)
	if want := t0 + timelineDraw; first.free != want || g.clk.target(t, 0) != want {
		t.Fatalf("first task: target %v, free %v, want both %v", g.clk.target(t, 0)-t0, first.free-t0, want-t0)
	}
	second := g.done(t)
	if want := first.free + timelineDraw; second.free != want || g.clk.target(t, -1) != want {
		t.Errorf("staged task: target %v, free %v, want both the previous target plus the draw, %v",
			g.clk.target(t, -1)-t0, second.free-t0, want-t0)
	}

	// The queue is empty: the replica parks, the host moves on, and the
	// next task meets an idle replica. It was sent before it was taken,
	// which must not move its start: an idle replica starts at pickup.
	g.awaitParked(t)
	pickup := g.clk.step(50 * time.Millisecond)
	g.queue(pickup-5*time.Millisecond, far)
	third := g.done(t)
	if want := pickup + timelineDraw; third.free != want || g.clk.target(t, -1) != want {
		t.Errorf("idle-path task: target %v, free %v, want both pickup plus the draw, %v",
			g.clk.target(t, -1)-t0, third.free-t0, want-t0)
	}

	g.m.mu.Lock()
	defer g.m.mu.Unlock()
	for i, at := range g.m.returned {
		if target := g.clk.target(t, i); at < target {
			t.Errorf("wait %d returned %v before its target", i, target-at)
		} else if at-target != timelineLate {
			t.Errorf("wait %d returned %v past its target, want the host's %v", i, at-target, timelineLate)
		}
	}
	if len(g.m.returned) != 3 {
		t.Errorf("%d waits returned, want 3", len(g.m.returned))
	}
}

// TestFailedTaskFreesReplicaAtHostInstant: an attempt that ends without a
// wait of its own — a crash, a transient fault, a cutoff before it starts —
// or whose Predict panics leaves the replica free at the host's instant, not
// at the instant the task was due to start or its wait's target. The task
// was queued 3 ms before the worker took it. Where the task staged behind it
// waits, it waits from that host instant. A failed attempt's deadline ends
// before its first retry's backoff could, so the attempt is the task's last.
// Each fault is counted, but for the cutoff before the start: that request
// is the deadline step's to resolve, and the worker counts no timeout.
func TestFailedTaskFreesReplicaAtHostInstant(t *testing.T) {
	cases := []struct {
		name  string
		tweak func(*Config, *fixedModel)
		// due is the request's deadline after the task was sent.
		due time.Duration
		// waited is whether the failed attempt waited out its draw first,
		// and next whether the task behind it waits too.
		waited, next bool
		count        func(ModelHealth) uint64
		uncounted    bool
	}{
		{"transient", func(c *Config, _ *fixedModel) {
			c.Faults = model.FaultConfig{TransientRate: 1, Seed: 1}
		}, timelineLate + retryBackoff - 1, false, false, func(h ModelHealth) uint64 { return h.Transient }, false},
		{"crash", func(c *Config, _ *fixedModel) {
			c.Faults = model.FaultConfig{CrashMTBF: time.Nanosecond, Seed: 1}
		}, timelineLate + retryBackoff - 1, false, false, func(h ModelHealth) uint64 { return h.Crashes }, false},
		{"cutoff before start", func(*Config, *fixedModel) {}, 0, false, true, func(h ModelHealth) uint64 { return h.Timeouts }, true},
		{"panic", func(_ *Config, m *fixedModel) {
			m.panics = true
		}, timelineDraw + timelineLate + retryBackoff - 1, true, true, func(h ModelHealth) uint64 { return h.Panics }, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g := newTimelineRig(t, c.tweak)
			sent := g.clk.now()
			g.queue(sent, sent+c.due)
			if c.next {
				// Due one late attempt after the first: no retry either.
				g.queue(sent, sent+c.due+timelineLate+timelineDraw)
			}
			host := g.clk.step(timelineLate)
			g.start(t)
			e := g.done(t)
			if c.next {
				g.done(t)
			}
			if got := c.count(g.s.Stats().Models[0]); c.uncounted && got != 0 {
				t.Fatalf("the cutoff before the start counted %d timeouts, want none", got)
			} else if !c.uncounted && got == 0 {
				t.Fatal("the fault was not counted")
			}
			if !e.failed {
				t.Error("the task did not fail")
			}
			waits := 0
			if c.waited {
				host = g.clk.target(t, 0) + timelineLate
				waits++
			}
			if c.next {
				waits++
			}
			if n := g.clk.waits(); n != waits {
				t.Errorf("%d waits made, want %d", n, waits)
			}
			if e.free != host {
				t.Errorf("replica free at %v, want the host instant %v", e.free-sent, host-sent)
			}
			if c.next {
				if want := host + timelineDraw; g.clk.target(t, -1) != want {
					t.Errorf("the staged task's target is %v, want the host instant plus the draw, %v",
						g.clk.target(t, -1)-sent, want-sent)
				}
			}
		})
	}
}
