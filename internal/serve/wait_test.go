package serve

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestEarliestWake pins the one-wait replacement to what the old
// three-timer select meant: a hedge or a cutoff ended the wait only when
// armed, and each was armed only when strictly earlier than the primary.
func TestEarliestWake(t *testing.T) {
	const ms = time.Millisecond
	cases := []struct {
		name                   string
		primary, hedge, cutoff time.Duration
		want                   time.Duration
		kind                   wakeKind
	}{
		{"primary alone", 8 * ms, never, never, 8 * ms, wakePrimary},
		{"hedge earlier", 30 * ms, 20 * ms, never, 20 * ms, wakeHedge},
		{"hedge later is never armed", 8 * ms, 20 * ms, never, 8 * ms, wakePrimary},
		{"cutoff earlier", 8 * ms, never, 3 * ms, 3 * ms, wakeCutoff},
		{"cutoff later leaves the primary", 8 * ms, never, 50 * ms, 8 * ms, wakePrimary},
		{"hedge with no cutoff", 8 * ms, 5 * ms, never, 5 * ms, wakeHedge},
		{"hedge before cutoff", 30 * ms, 10 * ms, 20 * ms, 10 * ms, wakeHedge},
		{"cutoff before hedge", 30 * ms, 20 * ms, 10 * ms, 10 * ms, wakeCutoff},
		{"primary ties hedge", 8 * ms, 8 * ms, never, 8 * ms, wakePrimary},
		{"primary ties cutoff", 8 * ms, never, 8 * ms, 8 * ms, wakePrimary},
		{"hedge ties cutoff", 30 * ms, 10 * ms, 10 * ms, 10 * ms, wakeHedge},
		{"three-way tie", 8 * ms, 8 * ms, 8 * ms, 8 * ms, wakePrimary},
	}
	for _, c := range cases {
		got, kind := earliestWake(c.primary, c.hedge, c.cutoff)
		if got != c.want || kind != c.kind {
			t.Errorf("%s: earliestWake(%v, %v, %v) = %v kind %d, want %v kind %d",
				c.name, c.primary, c.hedge, c.cutoff, got, kind, c.want, c.kind)
		}
	}
}

// TestWaiterNeverEarly runs many short waits on both sides of tailGuard
// through one reused waiter and checks each against its own monotonic
// target: whatever path a wait takes, it may not return before it.
func TestWaiterNeverEarly(t *testing.T) {
	clk := newWallClock(1)
	w := clk.newWaiter()
	ctx := context.Background()
	for i := 0; i < 300; i++ {
		// 0 .. 2.99 ms in 10 µs steps, visited out of order.
		d := time.Duration(i*37%300) * 10 * time.Microsecond
		target := clk.now() + d
		if _, alive := w.until(ctx, target); !alive {
			t.Fatalf("wait %d (%v) reported a live context as cancelled", i, d)
		}
		if early := target - clk.now(); early > 0 {
			t.Fatalf("wait %d (%v) returned %v before its target", i, d, early)
		}
	}
}

// waitClock is the clock of a waiter the test drives: time passes only
// inside the waiter's own sleeps, by exactly what the test decides, so
// which path a wait takes cannot depend on how the host ran it.
type waitClock struct {
	now time.Duration
	// overshoot is how far past its request each coarse sleep lands.
	overshoot time.Duration
	// coarse and tails list what each coarse sleep and each tail was
	// asked for, in call order.
	coarse, tails []time.Duration
}

// newClockedWaiter returns a waiter whose clock and coarse sleep are c's.
// tail stands in for the high-resolution sleep: it is handed the clock to
// advance (or not) and reports what tailSleep would.
func newClockedWaiter(c *waitClock, tail func(c *waitClock, d time.Duration) bool) *waiter {
	w := newWallClock(1).newWaiter()
	w.left = func(target time.Duration) time.Duration { return target - c.now }
	w.coarse = func(_ context.Context, d time.Duration) bool {
		c.coarse = append(c.coarse, d)
		c.now += d + c.overshoot
		return true
	}
	w.tail = func(d time.Duration) bool {
		c.tails = append(c.tails, d)
		return tail(c, d)
	}
	return w
}

// TestWaiterFallsBackWhenTailFails gives the waiter a tail that reports
// itself unusable without sleeping. The tail must be entered once, no
// further than tailGuard from the target, and the wait must still reach
// the target on the runtime timer.
func TestWaiterFallsBackWhenTailFails(t *testing.T) {
	c := &waitClock{}
	w := newClockedWaiter(c, func(*waitClock, time.Duration) bool { return false })
	target := c.now + tailGuard + 2*time.Millisecond
	over, alive := w.until(context.Background(), target)
	if !alive {
		t.Fatal("live context reported cancelled")
	}
	if early := target - c.now; early > 0 {
		t.Fatalf("returned %v before the target after a failed tail", early)
	}
	if over != 0 {
		t.Errorf("overshoot %v on a clock that lands every sleep exactly", over)
	}
	if len(c.tails) != 1 {
		t.Fatalf("tail entered %d times, want once", len(c.tails))
	}
	if c.tails[0] > tailGuard {
		t.Errorf("tail asked to sleep %v, beyond the %v guard", c.tails[0], tailGuard)
	}
	// The coarse leg to the guard, then what the failed tail left over.
	if want := []time.Duration{2 * time.Millisecond, tailGuard}; !reflect.DeepEqual(c.coarse, want) {
		t.Errorf("coarse sleeps %v, want %v", c.coarse, want)
	}
}

// TestWaiterReissuesInterruptedTail gives the waiter a tail that a signal
// interrupts a quarter of the guard in: it must be re-issued, each time
// for what is left, until the target has passed.
func TestWaiterReissuesInterruptedTail(t *testing.T) {
	const slice = tailGuard / 4
	c := &waitClock{}
	w := newClockedWaiter(c, func(c *waitClock, d time.Duration) bool {
		if d > slice {
			d = slice
		}
		c.now += d
		return true
	})
	target := c.now + tailGuard + 2*time.Millisecond
	over, alive := w.until(context.Background(), target)
	if !alive {
		t.Fatal("live context reported cancelled")
	}
	if early := target - c.now; early > 0 {
		t.Fatalf("returned %v before the target", early)
	}
	if over < 0 {
		t.Errorf("overshoot %v is negative", over)
	}
	if len(c.tails) == 0 {
		t.Fatal("a wait longer than the guard never entered the tail")
	}
	for i := 1; i < len(c.tails); i++ {
		if c.tails[i] > c.tails[i-1] {
			t.Fatalf("re-issued tail %d asked for %v after %v: not what is left", i, c.tails[i], c.tails[i-1])
		}
	}
	if want := []time.Duration{tailGuard, 3 * slice, 2 * slice, slice}; !reflect.DeepEqual(c.tails, want) {
		t.Errorf("tails asked for %v, want %v", c.tails, want)
	}
	if len(c.coarse) != 1 {
		t.Errorf("%d coarse sleeps around a tail that only ever was interrupted, want the one leg to the guard", len(c.coarse))
	}
}

// TestWaiterCoarseOvershootSkipsTail: a coarse leg the host stalls past
// the target itself (further than tailGuard past its request) ends the
// wait there, reporting how late, and the tail is never entered.
func TestWaiterCoarseOvershootSkipsTail(t *testing.T) {
	const late = 500 * time.Microsecond
	c := &waitClock{overshoot: tailGuard + late}
	w := newClockedWaiter(c, func(*waitClock, time.Duration) bool { return true })
	target := c.now + tailGuard + 2*time.Millisecond
	over, alive := w.until(context.Background(), target)
	if !alive {
		t.Fatal("live context reported cancelled")
	}
	if over != late {
		t.Errorf("overshoot %v, want the %v the coarse leg landed past the target", over, late)
	}
	if len(c.tails) != 0 {
		t.Errorf("tail entered %d times after the target had passed", len(c.tails))
	}
	if len(c.coarse) != 1 {
		t.Errorf("%d coarse sleeps, want 1", len(c.coarse))
	}
}

// TestWaiterShortWaitSkipsTail: a wait no longer than the guard is the
// runtime timer alone.
func TestWaiterShortWaitSkipsTail(t *testing.T) {
	clk := newWallClock(1)
	w := clk.newWaiter()
	tails := 0
	w.tail = func(time.Duration) bool { tails++; return true }
	target := clk.now() + tailGuard/2
	if _, alive := w.until(context.Background(), target); !alive {
		t.Fatal("live context reported cancelled")
	}
	if early := target - clk.now(); early > 0 {
		t.Fatalf("returned %v before the target", early)
	}
	if tails != 0 {
		t.Errorf("a wait shorter than the guard entered the tail %d times", tails)
	}
}

// TestWaiterPreCancelled: a context that is already done returns at once —
// the target is an hour away, so any waiting at all would hang the test.
func TestWaiterPreCancelled(t *testing.T) {
	clk := newWallClock(1)
	w := clk.newWaiter()
	tails := 0
	w.tail = func(time.Duration) bool { tails++; return true }
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, alive := w.until(ctx, clk.now()+time.Hour); alive {
		t.Fatal("alive == true for a cancelled context")
	}
	if tails != 0 {
		t.Errorf("pre-cancelled wait entered the tail %d times", tails)
	}
}

// selectSignal is a context that reports when its Done channel is first
// asked for — the moment the waiter evaluates its select, past the
// pre-wait check.
type selectSignal struct {
	context.Context
	once    sync.Once
	waiting chan struct{}
}

func (c *selectSignal) Done() <-chan struct{} {
	c.once.Do(func() { close(c.waiting) })
	return c.Context.Done()
}

// TestWaiterCancelDuringCoarsePhase cancels a wait that is already inside
// its coarse timer sleep: it must return dead without entering the tail,
// and leave the reused timer drained for the next wait.
func TestWaiterCancelDuringCoarsePhase(t *testing.T) {
	clk := newWallClock(1)
	w := clk.newWaiter()
	tails := 0
	w.tail = func(time.Duration) bool { tails++; return true }
	inner, cancel := context.WithCancel(context.Background())
	ctx := &selectSignal{Context: inner, waiting: make(chan struct{})}
	alive := make(chan bool, 1)
	go func() {
		_, a := w.until(ctx, clk.now()+time.Hour)
		alive <- a
	}()
	<-ctx.waiting
	cancel()
	if <-alive {
		t.Fatal("alive == true after cancellation mid-wait")
	}
	if tails != 0 {
		t.Errorf("cancelled coarse phase entered the tail %d times", tails)
	}
	target := clk.now() + 2*time.Millisecond
	if _, alive := w.until(context.Background(), target); !alive {
		t.Fatal("reused waiter reported a live context as cancelled")
	}
	if early := target - clk.now(); early > 0 {
		t.Fatalf("reused waiter returned %v early after a cancelled wait", early)
	}
}

// TestTaskOvershootCountsExecutedTasks: with no faults and no retries
// every executed task is exactly one completed model wait,
// so each model's overshoot histogram holds as many observations as the
// model executed tasks.
func TestTaskOvershootCountsExecutedTasks(t *testing.T) {
	a := artifacts(t)
	s := newServer(t, a)
	s.Start(context.Background())
	const n = 30
	chans := make([]<-chan Result, n)
	for i := range chans {
		chans[i] = s.Submit(a.Serve[i], 2*time.Second)
	}
	for _, ch := range chans {
		<-ch
	}
	s.Stop()
	var executed uint64
	for _, m := range s.Stats().Models {
		executed += m.Executed
		if m.TimerOvershoot.Count != m.Executed {
			t.Errorf("model %s: %d overshoot observations for %d executed tasks",
				m.Name, m.TimerOvershoot.Count, m.Executed)
		}
	}
	if executed == 0 {
		t.Fatal("no task executed; the test exercised nothing")
	}
}

// TestServeZeroConfigTwinsBitIdentical: the overshoot and starved
// histograms and the coordinator's deadline timer are always on, so the
// zero-config guarantee is pinned on a twin pair of identically seeded
// zero-config servers — the wait path and the worker's queue read make no
// random draw and decide nothing, so the two must agree request for
// request.
func TestServeZeroConfigTwinsBitIdentical(t *testing.T) {
	twins(t, artifacts(t), 25, func(*Config) {})
}
