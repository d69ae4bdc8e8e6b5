package serve

import (
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"schemble/internal/adapt"
	"schemble/internal/dataset"
	"schemble/internal/ensemble"
	"schemble/internal/obsv"
	"schemble/internal/qos"
	"schemble/internal/rcache"
	"schemble/internal/testutil"
)

// This file pins what the runtime makes of the engine's arrival path —
// score, cache lookup, admission, whose order internal/engine's own tests
// pin — in the state only the runtime keeps: results, class counters and
// decision traces. It runs on the gate_test.go rig on its frozen clock,
// features against each other: the blocking models hold a backlog of
// hour-long tasks, and the ladder climbs a rung per pass a step after the last
// while that backlog is deep, so a class sits at shed because the test moved
// the clock and filled the fleet, and for no other reason.

// difficultyEstimator scores a sample by its Difficulty field and counts
// how often it is asked.
type difficultyEstimator struct{ calls atomic.Int64 }

func (e *difficultyEstimator) Predict(s *dataset.Sample) float64 {
	e.calls.Add(1)
	return s.Difficulty
}

// regionKeyer keys a sample by its first feature: the test names the
// cache region outright.
type regionKeyer struct{}

func (regionKeyer) Key(features []float64) (int, bool) { return int(features[0]), true }

const (
	easyScore = 0.1
	hardScore = 0.9
	// orderGate is the cache's difficulty gate, between the two.
	orderGate = 0.5
)

// orderStep is how far the order rig's clock moves before a request whose pass
// is to climb the ladder: past the controller's 250 ms dwell between moves,
// and five of its 200 ms averaging times.
const orderStep = time.Second

// orderRig is a two-class gate rig whose ladder the backlog and the test's
// clock drive.
type orderRig struct {
	*gateRig
	est  *difficultyEstimator
	next int // next sample ID
}

func newOrderRig(t *testing.T, tweak func(*Config)) *orderRig {
	t.Helper()
	o := &orderRig{est: &difficultyEstimator{}}
	o.gateRig = newFrozenRig(t, 2, ensemble.Empty, func(c *Config) {
		c.Classes = []Class{
			{Name: "gold", Priority: 1, Deadline: 2 * time.Hour},
			{Name: "bronze", Priority: 0, Deadline: 2 * time.Hour},
		}
		// Load is the latest pass's backlog in hours (see newGateRig): 1.1
		// per task committed to the deeper model, nothing for a buffered
		// request, and tokens never bind. Rungs engage at 1, 1.5 and 2, so a
		// fleet with a task running and one staged on each model (2.2) climbs
		// one rung with each pass an orderStep after the last: only the
		// ladder sheds.
		c.Estimator = o.est
		tweak(c)
	})
	return o
}

// send submits one request of the given class, difficulty and region.
func (o *orderRig) send(class string, score float64, region int) <-chan Result {
	s := &dataset.Sample{ID: o.next, Features: []float64{float64(region)}, Difficulty: score}
	o.next++
	ch := o.srv.SubmitClass(s, 0, class)
	o.results = append(o.results, ch)
	return ch
}

func (o *orderRig) class(t *testing.T, name string) ClassStats {
	t.Helper()
	for _, c := range o.srv.Stats().Classes {
		if c.Name == name {
			return c
		}
	}
	t.Fatalf("no class %q in the stats", name)
	return ClassStats{}
}

// shedBronze piles hard gold requests an orderStep apart onto the blocked
// fleet until the ladder holds bronze at shed. Gold is the top class, which
// the ladder never sheds, so every one of them is taken and triggers a pass.
func (o *orderRig) shedBronze(t *testing.T) {
	t.Helper()
	base := o.srv.Stats()
	held := base.Buffered + base.InFlight
	for sent := 1; o.class(t, "bronze").Level != qos.LevelShed; sent++ {
		if sent > 16 {
			t.Fatalf("bronze at %q after %d gold arrivals onto a full fleet", o.class(t, "bronze").Level, sent-1)
		}
		o.clk.advance(t, orderStep)
		o.send("gold", hardScore, 100+sent)
		testutil.Poll(t, rigWait, "gold arrival planned", func() bool {
			st := o.srv.Stats()
			return st.Buffered+st.InFlight == held+sent
		})
	}
}

// TestSubmitOrderCacheAnswersShedClass: with bronze held at shed and one
// cache entry filled, an easy bronze request in that region resolves as a
// cached result, while a hard one in the same region, and an easy one in an
// empty region, resolve rejected — each with a trace carrying the score and
// cache outcome that say why — and the class counters book all three.
func TestSubmitOrderCacheAnswersShedClass(t *testing.T) {
	const region = 7
	rig := newOrderRig(t, func(c *Config) {
		c.Cache = rcache.Config{Keyer: regionKeyer{}, DifficultyMax: orderGate}
		c.Obs = obsv.Config{TraceBuffer: 64}
	})
	// Fill the region's entry while the ladder is at rest.
	filler := rig.send("bronze", easyScore, region)
	rig.finish(t, 0)
	rig.finish(t, 1)
	first := <-filler
	if first.Missed || first.Cached || first.Degraded {
		t.Fatalf("filling request resolved %+v, want a clean computed answer", first)
	}
	if cs := rig.srv.Stats().Cache; cs.Fills != 1 || cs.Misses != 1 {
		t.Fatalf("cache after the filling request: %+v, want 1 miss and 1 fill", *cs)
	}
	rig.shedBronze(t)

	hit := <-rig.send("bronze", easyScore, region)
	if !hit.Cached || hit.Missed || hit.Rejected {
		t.Fatalf("easy bronze request in a filled region resolved %+v with bronze at shed, want a cache hit", hit)
	}
	if hit.Subset != first.Subset || !reflect.DeepEqual(hit.Output, first.Output) {
		t.Error("cached answer differs from the one that filled the entry")
	}

	shedTrace := func(what string, res Result, score float64, cache string) {
		t.Helper()
		if !res.Rejected || !res.Missed || res.Cached {
			t.Fatalf("%s resolved %+v with bronze at shed, want rejected", what, res)
		}
		tr := rig.srv.Observer().Last(1)[0]
		if tr.Outcome != obsv.OutcomeRejected || tr.Class != "bronze" {
			t.Fatalf("%s: latest trace is %s/%s, want bronze/rejected", what, tr.Class, tr.Outcome)
		}
		if tr.Score != score || tr.Cache != cache || tr.Scored == 0 {
			t.Errorf("%s: shed trace carries score %v cache %q scored %v, want %v %q and a scored stamp",
				what, tr.Score, tr.Cache, tr.Scored, score, cache)
		}
	}
	shedTrace("hard request in the filled region", <-rig.send("bronze", hardScore, region), hardScore, obsv.CacheOutcomeBypass)
	shedTrace("easy request in an empty region", <-rig.send("bronze", easyScore, region+1), easyScore, obsv.CacheOutcomeMiss)

	// Stopping resolves everything still held as missed; then the books
	// must balance.
	rig.shutdown()
	st := rig.srv.Stats()
	var cached uint64
	for _, c := range st.Classes {
		if got := c.Served + c.Degraded + c.Missed + c.Rejected; got != c.Submitted {
			t.Errorf("class %s: served %d + degraded %d + missed %d + rejected %d = %d, submitted %d",
				c.Name, c.Served, c.Degraded, c.Missed, c.Rejected, got, c.Submitted)
		}
		if c.Cached > c.Served {
			t.Errorf("class %s: %d cached answers among %d served", c.Name, c.Cached, c.Served)
		}
		cached += c.Cached
	}
	if b := rig.class(t, "bronze"); b.Cached != 1 || b.Shed != 2 || b.Served != 2 {
		t.Errorf("bronze: cached %d shed %d served %d, want 1, 2 and 2", b.Cached, b.Shed, b.Served)
	}
	if cached != st.Cache.Hits {
		t.Errorf("classes count %d cached answers, the cache %d hits", cached, st.Cache.Hits)
	}
}

// TestSubmitOrderTraceSaysWhoCutTheSubset: a bronze request arrives at rung 0
// and commits a pass later at the capped level, onto the one model of its
// plan that finishes first — model 1, which just completed a task, not model
// 0, which a ranking by static cost would keep. Its trace says all of that:
// the level at commit beside the rung at arrival, and the scheduler's subset
// beside the committed one; a request committed whole says neither. The
// per-model backlog the pass fed the controller is in the stats.
func TestSubmitOrderTraceSaysWhoCutTheSubset(t *testing.T) {
	rig := newOrderRig(t, func(c *Config) { c.Obs = obsv.Config{TraceBuffer: 16} })
	inFlight := func(n, buffered int) func() bool {
		return func() bool {
			st := rig.srv.Stats()
			return st.InFlight == n && st.Buffered == buffered
		}
	}
	// Two gold requests fill both models: one task running, one staged.
	whole := rig.send("gold", hardScore, 1)
	testutil.Poll(t, rigWait, "first gold request committed", inFlight(1, 0))
	rig.send("gold", hardScore, 2)
	testutil.Poll(t, rigWait, "second gold request staged", inFlight(2, 0))
	// Both passes ran at one instant, too soon after the first for the
	// ladder to move. An orderStep later the bronze request finds no room:
	// its pass is gated. It reads two tasks' worth of work on either model
	// (the pass before it read one), which the stats publish once it is
	// over: the ladder steps onto rung 1, bronze capped to one model of two.
	rig.clk.advance(t, orderStep)
	cut := rig.send("bronze", hardScore, 3)
	testutil.Poll(t, rigWait, "bronze request's pass over", func() bool {
		for k, m := range rig.srv.Stats().Models[:2] {
			if two := 2 * rig.srv.eng.Exec()[k].Seconds(); m.BacklogSeconds > two || m.BacklogSeconds < two-1 {
				return false
			}
		}
		return inFlight(2, 1)()
	})
	if got := rig.srv.Stats().Ladder; got != 1 {
		t.Fatalf("ladder at %d after the gated pass, want 1", got)
	}
	// Model 1 completes a task. The pass that follows reads the same
	// backlog on model 0, holds rung 1, and has room on model 1 only.
	rig.finish(t, 1)
	testutil.Poll(t, rigWait, "bronze request committed", inFlight(3, 0))
	rig.finish(t, 1)
	rig.finish(t, 1)
	if res := <-cut; !res.Degraded || res.Subset != ensemble.Single(1) {
		t.Fatalf("capped bronze request resolved %+v, want degraded from model 1 alone", res)
	}
	tr := rig.srv.Observer().Last(1)[0]
	if tr.Class != "bronze" || tr.Ladder != 0 || tr.Level != "capped" ||
		tr.Planned != ensemble.Full(2) || !reflect.DeepEqual(tr.Subset, []int{1}) {
		t.Errorf("capped trace: class %q ladder %d level %q planned %v subset %v, want bronze 0 capped [0 1] [1]",
			tr.Class, tr.Ladder, tr.Level, tr.Planned, tr.Subset)
	}
	if tr.BusyUntil[1] >= tr.BusyUntil[0] {
		t.Errorf("capped trace: busy-until %v does not show model 1 freeing up first", tr.BusyUntil)
	}
	rig.finish(t, 0)
	if res := <-whole; res.Degraded || res.Subset != ensemble.Full(2) {
		t.Fatalf("first gold request resolved %+v, want a clean answer from both models", res)
	}
	if tr := rig.srv.Observer().Last(1)[0]; tr.Class != "gold" || tr.Level != "" || tr.Planned != ensemble.Empty {
		t.Errorf("whole trace: class %q level %q planned %v, want gold with neither", tr.Class, tr.Level, tr.Planned)
	}
}

// TestSubmitOrderScoresShedArrivals: with adaptation on, the runtime hands a
// request it then resolves as shed to the engine's arrival path like any
// other: the predictor is asked once per submission.
func TestSubmitOrderScoresShedArrivals(t *testing.T) {
	rig := newOrderRig(t, func(c *Config) {
		c.Adapt = adapt.Config{Enable: true}
	})
	rig.shedBronze(t)
	const n = 5
	for i := 0; i < n; i++ {
		if res := <-rig.send("bronze", easyScore, i); !res.Rejected {
			t.Fatalf("bronze request %d resolved %+v with bronze at shed, want rejected", i, res)
		}
	}
	if b := rig.class(t, "bronze"); b.Shed != n {
		t.Fatalf("bronze shed %d of %d", b.Shed, n)
	}
	if got, want := rig.est.calls.Load(), int64(rig.srv.Stats().Submitted); got != want {
		t.Errorf("predictor scored %d of %d arrivals: every arrival is scored once, shed or not", got, want)
	}
}
