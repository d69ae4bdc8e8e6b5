package engine

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"schemble/internal/adapt"
	"schemble/internal/core"
	"schemble/internal/ensemble"
	"schemble/internal/qos"
	"schemble/internal/rcache"
	"schemble/internal/rng"
)

// world is a third, minimal driver: a seeded script of arrivals, task
// completions (some failing), breaker flips and expiring deadlines over a
// fleet that runs one task per model at a time. It holds every feature
// combination to the same properties and keeps the books per class.
type world struct {
	t   *testing.T
	r   *rig
	f   *fleet
	now time.Duration
	log []string

	buffered []*req
	arrivals int
	hits     int
	// cleanFills is what the world itself saw settle cleanly and cacheable.
	cleanFills int
	tally      map[int]*classTally
}

type classTally struct{ submitted, served, degraded, missed, rejected int }

func newWorld(t *testing.T, tweak func(*Config)) *world {
	w := &world{t: t, tally: map[int]*classTally{}}
	w.r = newRig(func(c *Config) {
		c.Scheduler = &core.DP{Delta: 0.05}
		if tweak != nil {
			tweak(c)
		}
	})
	w.f = newFleet(t, w.r.Exec(), 1, 1, 1)
	return w
}

func (w *world) note(format string, args ...any) {
	w.log = append(w.log, fmt.Sprintf("%v ", w.now)+fmt.Sprintf(format, args...))
}

func (w *world) class(ci int) *classTally {
	if w.tally[ci] == nil {
		w.tally[ci] = &classTally{}
	}
	return w.tally[ci]
}

func (w *world) arrive(class string, score float64, region int, budget time.Duration) {
	q, a := w.r.arrive(w.now, class, score, region, budget)
	w.arrivals++
	c := w.class(q.Class)
	c.submitted++
	switch a.Verdict {
	case Hit:
		w.hits++
		c.served++
	case Shed:
		c.rejected++
	case Admitted:
		w.buffered = append(w.buffered, q)
	}
	w.note("arrive %d class %d score %.2f: %d %s", q.sample.ID, q.Class, q.Score, a.Verdict, a.Cache)
}

// finish completes the task at the head of model k's queue.
func (w *world) finish(k int, fail bool) {
	q := w.f.queue[k][0]
	w.f.queue[k] = w.f.queue[k][1:]
	if w.r.Adapt != nil {
		// The fleet runs half again slower than profiled.
		w.r.Adapt.ObserveLatency(w.now, k, time.Duration(k+1)*15*ms)
	}
	if fail {
		q.failed++
	} else {
		q.ok = q.ok.With(k)
	}
	if q.left--; q.left > 0 {
		return
	}
	c := w.class(q.Class)
	if q.ok == ensemble.Empty {
		c.missed++
		w.note("settle %d: every task failed", q.sample.ID)
		return
	}
	late := w.now > q.Deadline
	st := w.r.Settle(&q.Query, outputs(), q.ok, q.failed, late)
	w.r.Delivered(w.now, &q.Query, st)
	switch {
	case late:
		c.missed++
	case st.Degraded:
		c.degraded++
	default:
		c.served++
		if q.Cacheable {
			w.cleanFills++
		}
	}
	w.note("settle %d: ok %v late %v degraded %v", q.sample.ID, q.ok.Models(), late, st.Degraded)
}

// step expires what the clock overtook in the buffer and runs a pass.
func (w *world) step() {
	kept := w.buffered[:0]
	for _, q := range w.buffered {
		switch {
		case q.committed:
		case q.Deadline < w.now:
			w.r.Filter(func(it Item) bool { return it != q })
			w.class(q.Class).missed++
			w.note("expire %d", q.sample.ID)
		default:
			kept = append(kept, q)
		}
	}
	w.buffered = kept
	from := len(w.f.log)
	w.r.Pass(w.now, w.f)
	for _, l := range w.f.log[from:] {
		if l != "capacity" {
			w.note("%s", l)
		}
	}
}

// run plays the seeded script and then lets the fleet run dry.
func (w *world) run(seed uint64, steps int) {
	src := rng.New(seed)
	classes := []string{"gold", "silver", "bronze", ""}
	budgets := []time.Duration{40 * ms, 120 * ms, 400 * ms}
	busy := func() []int {
		var ks []int
		for k, q := range w.f.queue {
			if len(q) > 0 {
				ks = append(ks, k)
			}
		}
		return ks
	}
	for i := 0; i < steps; i++ {
		w.now += time.Duration(1+src.Intn(8)) * ms
		switch ks := busy(); {
		case src.Bool(0.03):
			// One model's breaker opens, or the open one closes.
			if w.f.blocked == ensemble.Empty {
				w.f.blocked = ensemble.Single(src.Intn(3))
			} else {
				w.f.blocked = ensemble.Empty
			}
			w.note("blocked %v", w.f.blocked.Models())
		case len(ks) > 0 && src.Bool(0.45):
			w.finish(ks[src.Intn(len(ks))], src.Bool(0.1))
		default:
			w.arrive(classes[src.Intn(len(classes))], src.Float64(), src.Intn(3), budgets[src.Intn(len(budgets))])
		}
		w.step()
	}
	w.f.blocked = ensemble.Empty
	for ks := busy(); len(ks) > 0 || w.r.Buffered() > 0; ks = busy() {
		w.now += 5 * ms
		if len(ks) > 0 {
			w.finish(ks[0], false)
		}
		w.step()
	}
}

// check holds the finished run to the properties every combination shares.
func (w *world) check(name string) {
	t, e := w.t, w.r.Engine
	if w.r.est.calls != w.arrivals {
		t.Errorf("%s: predictor asked %d times for %d arrivals", name, w.r.est.calls, w.arrivals)
	}
	var total classTally
	for ci, c := range w.tally {
		if got := c.served + c.degraded + c.missed + c.rejected; got != c.submitted {
			t.Errorf("%s: class %d: served %d + degraded %d + missed %d + rejected %d = %d, submitted %d",
				name, ci, c.served, c.degraded, c.missed, c.rejected, got, c.submitted)
		}
		total = classTally{total.submitted + c.submitted, total.served + c.served,
			total.degraded + c.degraded, total.missed + c.missed, total.rejected + c.rejected}
	}
	t.Logf("%s: %d arrivals, %d hits, outcomes %+v, ladder %d", name, w.arrivals, w.hits, total, e.QoS.Ladder())
	if total.served == 0 || total.degraded == 0 || total.missed == 0 {
		t.Errorf("%s: outcomes %+v: the script lost its point", name, total)
	}
	if len(e.cfg.Classes) > 0 {
		// Admission heard of every arrival but the hits, and of nothing else.
		var decided uint64
		_, _, snaps := e.QoS.Snapshot()
		for _, c := range snaps {
			decided += c.Admitted + c.Shed
		}
		if decided != uint64(w.arrivals-w.hits) || total.rejected == 0 {
			t.Errorf("%s: admission decided %d of %d arrivals (%d hits, %d shed)", name, decided, w.arrivals, w.hits, total.rejected)
		}
		if w.f.cut == 0 {
			t.Errorf("%s: the ladder's cap never cut a plan", name)
		}
	} else if total.rejected != 0 {
		t.Errorf("%s: %d rejections without classes", name, total.rejected)
	}
	if e.Cache != nil {
		cs := e.Cache.Snapshot()
		if cs.Hits+cs.Misses+cs.Bypasses != uint64(w.arrivals) || cs.Hits != uint64(w.hits) || w.hits == 0 {
			t.Errorf("%s: %d arrivals, %d hits, cache counted %+v", name, w.arrivals, w.hits, cs)
		}
		if cs.Fills != uint64(w.cleanFills) || cs.Fills == 0 {
			t.Errorf("%s: cache filled %d times, %d cacheable queries settled cleanly", name, cs.Fills, w.cleanFills)
		}
	} else if w.hits != 0 {
		t.Errorf("%s: %d hits without a cache", name, w.hits)
	}
	if e.Adapt != nil {
		// Every model saw enough of the fleet's slowdown to plan with it.
		for k, m := range e.Adapt.Snapshot().Models {
			if m.Inflation <= 1 || e.Exec()[k] != time.Duration(float64(e.cfg.BaseExec[k])*m.Inflation) {
				t.Errorf("%s: model %d: %d samples, inflation %v, planning cost %v over base %v",
					name, k, m.Samples, m.Inflation, e.Exec()[k], e.cfg.BaseExec[k])
			}
		}
	}
}

// TestFeatureMatrix runs {classes, cache, adapt} one at a time, pairwise and
// all together through one script and one set of properties. (The fleet
// checks on every commit that no blocked model is used, no ladder cap
// exceeded, and that a cap kept the models that finish the query first.)
func TestFeatureMatrix(t *testing.T) {
	classes := func(c *Config) {
		c.Classes = threeClasses
		// The fleet holds at most one task per model and the cache answers
		// half the arrivals when it is on, so the committed work the ladder
		// reads stays small: a short Target is what makes every classed cell
		// shed.
		c.Admission = qos.Tuning{Capacity: 40, Target: 50 * ms}
	}
	cache := func(c *Config) { c.Cache = rcache.Config{Keyer: regionKeyer{}, DifficultyMax: 0.6} }
	adaptive := func(c *Config) { c.Adapt = adapt.Config{Enable: true} }
	features := []struct {
		name string
		on   func(*Config)
	}{{"classes", classes}, {"cache", cache}, {"adapt", adaptive}}
	for mask := 1; mask < 1<<len(features); mask++ {
		name := ""
		w := newWorld(t, func(c *Config) {
			for i, f := range features {
				if mask&(1<<i) != 0 {
					name += "+" + f.name
					f.on(c)
				}
			}
		})
		w.run(uint64(mask), 600)
		w.check(name[1:])
	}
}

// TestZeroValueFeaturesAreAbsent: a feature whose config does not enable it
// builds no component, and the run is action for action the run of an
// engine that was never told of it.
func TestZeroValueFeaturesAreAbsent(t *testing.T) {
	plain := newWorld(t, nil)
	plain.run(9, 400)
	zero := newWorld(t, func(c *Config) {
		c.Classes = []qos.Class{}
		c.Admission = qos.Tuning{Target: 50 * ms}
		c.Cache = rcache.Config{Capacity: 8, DifficultyMax: 1}
		c.Adapt = adapt.Config{Scorer: &countingScorer{}, RecalMinPairs: 1}
	})
	if e := zero.r.Engine; e.Cache != nil || e.Adapt != nil || e.QoS.ClassIndex("") != -1 {
		t.Fatalf("disabled features built components: cache %v adapt %v, class index %d", e.Cache, e.Adapt, e.QoS.ClassIndex(""))
	}
	zero.run(9, 400)
	sameRun(t, plain, zero, "without the features", "with their zero values")
}

// sameRun fails t unless worlds a and b took the same actions, at least
// 400 of them.
func sameRun(t *testing.T, a, b *world, aName, bName string) {
	t.Helper()
	if !reflect.DeepEqual(a.log, b.log) {
		for i := range a.log {
			if i >= len(b.log) || a.log[i] != b.log[i] {
				t.Fatalf("runs diverge at action %d: %q %s, %q %s", i, a.log[i], aName, b.log[i:min(i+1, len(b.log))], bName)
			}
		}
		t.Fatalf("%d actions %s, %d %s", len(a.log), aName, len(b.log), bName)
	}
	if len(a.log) < 400 {
		t.Fatalf("only %d actions logged", len(a.log))
	}
}

// TestAdaptIgnoresRecalibrationFields: adapt.Config's Scorer and
// RecalMinPairs are accepted and inert. An engine given both takes every
// decision and ends in every adaptation state of one given neither, and
// never calls the scorer, though clean full-ensemble results settle.
func TestAdaptIgnoresRecalibrationFields(t *testing.T) {
	scorer := &countingScorer{}
	worlds := make([]*world, 2)
	for i, cfg := range []adapt.Config{{Enable: true}, {Enable: true, Scorer: scorer, RecalMinPairs: 1}} {
		worlds[i] = newWorld(t, func(c *Config) {
			c.Cache = rcache.Config{Keyer: regionKeyer{}, DifficultyMax: 0.6}
			c.Adapt = cfg
		})
		worlds[i].run(13, 600)
	}
	sameRun(t, worlds[0], worlds[1], "with Enable alone", "with Scorer and RecalMinPairs too")
	plain, pinned := worlds[0].r.Adapt.Snapshot(), worlds[1].r.Adapt.Snapshot()
	if !reflect.DeepEqual(plain, pinned) {
		t.Errorf("adaptation snapshots differ:\n%+v with Enable alone\n%+v with Scorer and RecalMinPairs too", plain, pinned)
	}
	clean := 0
	for _, l := range worlds[1].log {
		if strings.HasSuffix(l, "ok [0 1 2] late false degraded false") {
			clean++
		}
	}
	if scorer.calls != 0 || clean == 0 {
		t.Errorf("scorer called %d times over %d clean full-ensemble results", scorer.calls, clean)
	}
}
