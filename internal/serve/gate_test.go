package serve

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"schemble/internal/core"
	"schemble/internal/dataset"
	"schemble/internal/ensemble"
	"schemble/internal/model"
	"schemble/internal/rng"
	"schemble/internal/testutil"
)

// This file pins the coordinator's dispatch gate: a planning pass that
// cannot commit anything — every unblocked replica already holds a running
// task and a staged one — must not call the scheduler, and must leave the
// buffer, the load signal and the counters exactly as a pass that planned
// and then committed nothing. staged_test.go drives the same rig through
// the staging rule's own properties.
//
// The rig takes the wall clock out of the picture. Models claim an hour
// of mean latency, so a committed replica stays busy in the coordinator's
// estimate until its completion re-anchors it; they draw zero actual
// latency and then block in Predict until the test releases them, so
// every coordinator event is one the script caused. The server runs on a
// test clock (clock_test.go): unfrozen it only counts, which tells the rig
// when every worker waits for a task; frozen, deadlines arrive when the
// test advances it. The scheduler is a
// stub that plans every query onto models 0 and 1, counts its calls, and
// can be held inside a call the way the DP holds the coordinator while it
// plans a deep buffer. Handed a DP, it plans with that instead.

// gateModel is a model the test holds inside Predict.
type gateModel struct {
	model.Model
	clk     *testClock
	release chan struct{}
	quit    chan struct{}
	// entered counts the attempts that reached Predict, finished or not.
	entered atomic.Int64
	// broken makes Predict panic: at once when set on entry, or when the
	// test lets a held attempt go.
	broken atomic.Bool
}

func (g *gateModel) MeanLatency() time.Duration              { return time.Hour }
func (g *gateModel) SampleLatency(*rng.Source) time.Duration { return 0 }
func (g *gateModel) Predict(s *dataset.Sample) model.Output {
	g.entered.Add(1)
	if !g.broken.Load() {
		g.clk.hold(1)
		select {
		case <-g.release:
		case <-g.quit:
		}
	}
	if g.broken.Load() {
		panic("gate model broken")
	}
	return g.Model.Predict(s)
}

// pairScheduler plans every query onto models 0 and 1, whatever the
// capacity, and counts how often it is asked. While held it announces each
// call on entered and blocks inside it until resumed, which leaves the
// coordinator stuck mid-pass.
type pairScheduler struct {
	calls atomic.Int64
	// last is how many queries the latest call was shown.
	last atomic.Int64
	// alone is the ID of a query planned onto model 0 alone; -1 for none.
	alone atomic.Int64
	// dp, once set, plans every call in the stub's place.
	dp      atomic.Pointer[core.DP]
	held    atomic.Bool
	entered chan struct{}
	resume  chan struct{}
	quit    chan struct{}
}

func (*pairScheduler) Name() string { return "pair" }
func (p *pairScheduler) Schedule(now time.Duration, queries []core.QueryInfo, avail core.Capacity, exec []time.Duration, r core.Rewarder) core.Plan {
	p.last.Store(int64(len(queries)))
	p.calls.Add(1)
	if p.held.Load() {
		p.meet(p.entered)
		p.meet(p.resume)
	}
	if dp := p.dp.Load(); dp != nil {
		return dp.Schedule(now, queries, avail, exec, r)
	}
	plan := core.Plan{Assignments: make(map[int]ensemble.Subset, len(queries))}
	for _, q := range queries {
		plan.Assignments[q.ID] = ensemble.Full(2)
		if int64(q.ID) == p.alone.Load() {
			plan.Assignments[q.ID] = ensemble.Single(0)
		}
	}
	return plan
}

// meet blocks the held call until the test takes from ch, or the rig quits.
func (p *pairScheduler) meet(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	case <-p.quit:
	}
}

// hold makes the next Schedule call block; awaitHeld returns once the
// coordinator is inside it, and resumeHeld lets that call (and every later
// one) through.
func (p *pairScheduler) hold() { p.held.Store(true) }

func (p *pairScheduler) awaitHeld(t *testing.T) {
	t.Helper()
	select {
	case <-p.entered:
	case <-time.After(rigWait):
		t.Fatal("the coordinator never reached the held scheduler")
	}
}

func (p *pairScheduler) resumeHeld(t *testing.T) {
	t.Helper()
	p.held.Store(false)
	select {
	case <-p.resume:
	case <-time.After(rigWait):
		t.Fatal("no scheduler call was held")
	}
}

// rigWait bounds every wait on the rig; nothing is expected to come near it.
const rigWait = 10 * time.Second

// gateRig is one server under the script.
type gateRig struct {
	srv     *Server
	clk     *testClock
	sched   *pairScheduler
	models  []*gateModel
	results []<-chan Result
	quit    chan struct{}
	once    sync.Once
}

// newGateRig builds a server over nModels gate models, on an unfrozen test
// clock. A third model is never planned and so always idle: it keeps the
// gate open on every pass, which makes that server the twin without the
// gate. blocked forces those models' breakers open until the test says
// otherwise; tweak adjusts the server's configuration before it is built.
func newGateRig(t *testing.T, nModels int, blocked ensemble.Subset, tweak ...func(*Config)) *gateRig {
	t.Helper()
	return buildGateRig(t, false, nModels, blocked, tweak...)
}

// newFrozenRig is newGateRig on a frozen clock.
func newFrozenRig(t *testing.T, nModels int, blocked ensemble.Subset, tweak ...func(*Config)) *gateRig {
	t.Helper()
	return buildGateRig(t, true, nModels, blocked, tweak...)
}

func buildGateRig(t *testing.T, frozen bool, nModels int, blocked ensemble.Subset, tweak ...func(*Config)) *gateRig {
	t.Helper()
	quit := make(chan struct{})
	rig := &gateRig{quit: quit, sched: &pairScheduler{
		entered: make(chan struct{}), resume: make(chan struct{}), quit: quit,
	}}
	rig.sched.alone.Store(-1)
	var models []model.Model
	for _, base := range model.TextMatchingModels(3)[:nModels] {
		gm := &gateModel{Model: base, release: make(chan struct{}), quit: quit}
		rig.models = append(rig.models, gm)
		models = append(models, gm)
	}
	cfg := Config{
		Ensemble:  ensemble.New(dataset.Classification, models, &ensemble.Average{}, nil),
		Scheduler: rig.sched,
		Rewarder:  sizeRewarder{},
		Seed:      1,
		// The backlog a pass feeds the controller is the work committed to
		// the most loaded model: the buffered term is negligible at this
		// capacity, which also keeps tokens from ever binding.
		Admission: AdmissionConfig{Capacity: 1e9, Target: time.Hour},
	}
	for _, f := range tweak {
		f(&cfg)
	}
	rig.srv = New(cfg)
	rig.clk = useTestClock(rig.srv, frozen)
	for _, gm := range rig.models {
		gm.clk = rig.clk
	}
	for _, k := range blocked.Models() {
		rig.setBreaker(k, breakerOpen)
	}
	rig.srv.Start(context.Background())
	t.Cleanup(rig.shutdown)
	// The script starts from a fleet at rest: a worker still on its way to
	// its queue could otherwise meet the first arrival half-dispatched.
	testutil.Poll(t, rigWait, "workers waiting", rig.clk.allIdle)
	return rig
}

// shutdown lets every held model and scheduler call go and stops the
// server; the rig's cleanup, and safe to call earlier.
func (g *gateRig) shutdown() {
	g.once.Do(func() { close(g.quit) })
	g.srv.Stop()
}

// setBreaker forces model k's breaker into state, as the coordinator's next
// pass will read it. An open one opened in the far future, so no cooldown
// the script reaches ends it.
func (g *gateRig) setBreaker(k, state int) {
	g.srv.breakerMu.Lock()
	g.srv.breakers[k].state = state
	g.srv.breakers[k].openedAt = never
	g.srv.breakerMu.Unlock()
}

func (g *gateRig) submit(sample *dataset.Sample) {
	g.results = append(g.results, g.srv.Submit(sample, 2*time.Hour))
}

// arrive submits one more request, a sample of its own.
func (g *gateRig) arrive() { g.arriveWithin(2 * time.Hour) }

// arriveWithin is arrive with a deadline budget of its own.
func (g *gateRig) arriveWithin(budget time.Duration) {
	i := len(g.results)
	g.results = append(g.results, g.srv.Submit(poolSamples(i + 1)[i], budget))
}

// post hands the coordinator an event the test made.
func (g *gateRig) post(e event) {
	g.clk.sent(toCoordinator, 1)
	g.srv.events <- e
}

// finish lets model k's running task complete; it blocks until the worker
// is actually inside Predict.
func (g *gateRig) finish(t *testing.T, k int) {
	t.Helper()
	g.clk.hold(-1)
	select {
	case g.models[k].release <- struct{}{}:
	case <-time.After(rigWait):
		t.Fatalf("model %d never reached Predict", k)
	}
}

// gateOracle is the coordinator's pass reduced to what the script can
// reach: requests commit in deadline order — arrival order here, every
// request having the one budget — onto the planned, unblocked models as long
// as every one of them has fewer than two tasks outstanding — the running one
// and one staged behind it. The gate only asks that one of them has.
type gateOracle struct {
	usable    ensemble.Subset // planned and not blocked
	buffer    []int
	queue     [2][]int // per model: committed request ids, head running
	remaining map[int]int
	inflight  int
	served    int
	// fedTasks is what the latest pass fed the controller, in tasks: the
	// most any model had committed to it.
	fedTasks int
	calls    int // Schedule calls with the gate
	ungated  int // Schedule calls without it
}

// roomy counts the usable models with fewer than two tasks outstanding.
func (o *gateOracle) roomy() int {
	n := 0
	for _, k := range o.usable.Models() {
		if len(o.queue[k]) < 2 {
			n++
		}
	}
	return n
}

func (o *gateOracle) pass() {
	o.fedTasks = max(len(o.queue[0]), len(o.queue[1]))
	if len(o.buffer) == 0 {
		return
	}
	o.ungated++
	if o.roomy() == 0 {
		return
	}
	o.calls++
	kept := o.buffer[:0]
	for _, id := range o.buffer {
		if o.roomy() < o.usable.Size() {
			kept = append(kept, id)
			continue
		}
		for _, k := range o.usable.Models() {
			o.queue[k] = append(o.queue[k], id)
		}
		o.remaining[id] = o.usable.Size()
		o.inflight++
	}
	o.buffer = kept
}

func (o *gateOracle) submit(id int) {
	o.buffer = append(o.buffer, id)
	o.pass()
}

func (o *gateOracle) finish(k int) {
	id := o.queue[k][0]
	o.queue[k] = o.queue[k][1:]
	if o.remaining[id]--; o.remaining[id] == 0 {
		o.inflight--
		o.served++
	}
	o.pass()
}

// settled reports whether the server has reached the oracle's state.
func (g *gateRig) settled(o *gateOracle, calls int) bool {
	st := g.srv.Stats()
	return st.Buffered == len(o.buffer) && st.InFlight == o.inflight &&
		st.Served == uint64(o.served) && st.Missed == 0 && st.Rejected == 0 &&
		g.loadInTasks() == o.fedTasks && int(g.sched.calls.Load()) == calls
}

// loadInTasks reads the backlog the latest pass fed the controller, the work
// committed to the most loaded model, in the gate models' task times, to the
// nearest whole task: a task is over an hour and the script takes seconds, so
// the rounding absorbs the clock.
func (g *gateRig) loadInTasks() int {
	deepest := 0.0
	for _, m := range g.srv.Stats().Models {
		deepest = max(deepest, m.BacklogSeconds)
	}
	return int(math.Round(deepest / g.srv.eng.Exec()[0].Seconds()))
}

// staged reports whether no model holds more than two outstanding tasks per
// replica: the running one and one staged behind it.
func (g *gateRig) staged() bool {
	st := g.srv.Stats()
	for k, busy := range st.ReplicaBusy {
		n := st.QueueDepth[k]
		for _, b := range busy {
			n += b
		}
		if n > 2*len(busy) {
			return false
		}
	}
	return true
}

func (g *gateRig) state() string {
	st := g.srv.Stats()
	return fmt.Sprintf("buffered %d inflight %d served %d missed %d rejected %d load %.6f (%d tasks) calls %d",
		st.Buffered, st.InFlight, st.Served, st.Missed, st.Rejected, st.Load, g.loadInTasks(), g.sched.calls.Load())
}

// runGateScript drives the gated server and its ungated twin through one
// seeded script of arrivals and completions, holding both to the oracle
// after every step.
func runGateScript(t *testing.T, seed uint64, blocked ensemble.Subset) {
	gated := newGateRig(t, 2, blocked)
	twin := newGateRig(t, 3, blocked)
	o := &gateOracle{usable: ensemble.Full(2) &^ blocked, remaining: map[int]int{}}
	samples := poolSamples(24)
	src := rng.New(seed)
	check := func(what string) {
		t.Helper()
		if !testutil.Wait(rigWait, func() bool {
			return gated.settled(o, o.calls) && twin.settled(o, o.ungated)
		}) {
			t.Fatalf("seed %d: %s never settled\noracle %+v\ngated  %s\ntwin   %s", seed, what, *o, gated.state(), twin.state())
		}
		// The staging property, read off the server. A worker moving a task
		// from the queue to its replica can be counted twice by one Stats
		// call, so a breach must persist: it does, every task being held.
		if !testutil.Wait(rigWait, func() bool { return gated.staged() && twin.staged() }) {
			st, tw := gated.srv.Stats(), twin.srv.Stats()
			t.Fatalf("seed %d: after %s a model holds over two tasks: gated queues %v running %v, twin queues %v running %v",
				seed, what, st.QueueDepth, st.ReplicaBusy, tw.QueueDepth, tw.ReplicaBusy)
		}
	}
	// busy lists the usable models with a task to finish. While arrivals
	// remain it leaves out completions nothing observable follows from (a
	// request's first task, with nothing buffered to take the freed
	// room): the script could not tell when the coordinator had seen one,
	// and an arrival overtaking it would plan against a stale view.
	busy := func(observable bool) []int {
		var ks []int
		for _, k := range o.usable.Models() {
			if len(o.queue[k]) == 0 {
				continue
			}
			if observable && len(o.buffer) == 0 && o.remaining[o.queue[k][0]] > 1 {
				continue
			}
			ks = append(ks, k)
		}
		return ks
	}
	submitted := 0
	for submitted < len(samples) {
		if ks := busy(true); len(ks) > 0 && src.Bool(0.5) {
			k := ks[src.Intn(len(ks))]
			gated.finish(t, k)
			twin.finish(t, k)
			o.finish(k)
		} else {
			gated.submit(samples[submitted])
			twin.submit(samples[submitted])
			o.submit(submitted)
			submitted++
		}
		check("script step")
	}
	for ks := busy(false); len(ks) > 0; ks = busy(false) {
		gated.finish(t, ks[0])
		twin.finish(t, ks[0])
		o.finish(ks[0])
		check("drain step")
	}
	if o.served != submitted || o.calls >= o.ungated {
		t.Fatalf("seed %d: served %d of %d, %d gated calls vs %d ungated", seed, o.served, submitted, o.calls, o.ungated)
	}
	for i := range gated.results {
		rg, rt := <-gated.results[i], <-twin.results[i]
		if rg.Missed || rg.Subset != o.usable || rg.Subset != rt.Subset || rg.Missed != rt.Missed {
			t.Fatalf("seed %d request %d: gated %+v twin %+v", seed, i, rg, rt)
		}
	}
}

// TestDispatchGateMatchesUngatedTwin: with both planned models healthy,
// the scheduler is consulted only on passes where one of them has room,
// and nothing else about the run differs from the twin that plans on
// every pass.
func TestDispatchGateMatchesUngatedTwin(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		runGateScript(t, seed, ensemble.Empty)
	}
}

// TestDispatchGateIgnoresBlockedIdleReplica: model 1 sits behind an open
// breaker, so it is idle throughout and must not open the gate — the
// scheduler is consulted only while model 0 has room.
func TestDispatchGateIgnoresBlockedIdleReplica(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		runGateScript(t, seed, ensemble.Single(1))
	}
}

// TestDispatchGateZeroCallsWhileBusy is the property in its barest form:
// once the only usable replica holds a running task and a staged one,
// arrivals buffer without a single scheduler call, and the next completion
// reopens planning.
func TestDispatchGateZeroCallsWhileBusy(t *testing.T) {
	rig := newGateRig(t, 2, ensemble.Single(1))
	samples := poolSamples(6)
	for i, s := range samples[:2] {
		rig.submit(s)
		testutil.Poll(t, rigWait, "request committed", func() bool {
			return rig.srv.Stats().InFlight == i+1
		})
	}
	if got := rig.sched.calls.Load(); got != 2 {
		t.Fatalf("%d scheduler calls for the running and the staged request, want 2", got)
	}
	for _, s := range samples[2:] {
		rig.submit(s)
	}
	testutil.Poll(t, rigWait, "arrivals buffered", func() bool {
		return rig.srv.Stats().Buffered == len(samples)-2
	})
	if got := rig.sched.calls.Load(); got != 2 {
		t.Fatalf("%d scheduler calls while the only unblocked replica was full, want still 2", got)
	}
	rig.finish(t, 0)
	testutil.Poll(t, rigWait, "next request staged", func() bool {
		st := rig.srv.Stats()
		return st.Served == 1 && st.InFlight == 2 && st.Buffered == len(samples)-3
	})
	if got := rig.sched.calls.Load(); got != 3 {
		t.Fatalf("%d scheduler calls after one completion, want 3", got)
	}
}
