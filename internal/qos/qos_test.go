package qos

import (
	"math"
	"testing"
	"time"

	"schemble/internal/ensemble"
	"schemble/internal/rng"
)

func threeClasses() []Class {
	return []Class{
		{Name: "gold", Priority: 2, Deadline: 300 * time.Millisecond, Weight: 1},
		{Name: "silver", Priority: 1, Deadline: 300 * time.Millisecond, Weight: 1},
		{Name: "bronze", Priority: 0, Deadline: 300 * time.Millisecond, Weight: 1},
	}
}

func TestNewValidation(t *testing.T) {
	mustPanic := func(name string, classes []Class) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		New(Config{Classes: classes})
	}
	mustPanic("empty name", []Class{{Name: "", Priority: 0, Deadline: time.Second}})
	mustPanic("dup name", []Class{
		{Name: "a", Priority: 0, Deadline: time.Second},
		{Name: "a", Priority: 1, Deadline: time.Second},
	})
	mustPanic("zero deadline", []Class{{Name: "a", Priority: 0}})
}

func TestClassIndexAndRanks(t *testing.T) {
	c := New(Config{Classes: threeClasses()})
	if got := c.Classes(); got != 3 {
		t.Fatalf("Classes() = %d, want 3", got)
	}
	gold, silver, bronze := c.ClassIndex("gold"), c.ClassIndex("silver"), c.ClassIndex("bronze")
	if gold != 0 || silver != 1 || bronze != 2 {
		t.Fatalf("indices = %d,%d,%d, want 0,1,2", gold, silver, bronze)
	}
	// Unknown and empty names map to the lowest-priority class.
	if got := c.ClassIndex("platinum"); got != bronze {
		t.Errorf("unknown class -> %d, want bronze (%d)", got, bronze)
	}
	if got := c.ClassIndex(""); got != bronze {
		t.Errorf("empty class -> %d, want bronze (%d)", got, bronze)
	}
	if c.Rank(bronze) != 0 || c.Rank(silver) != 1 || c.Rank(gold) != 2 {
		t.Errorf("ranks = %d,%d,%d, want 0,1,2 for bronze,silver,gold",
			c.Rank(bronze), c.Rank(silver), c.Rank(gold))
	}
	// Priority ties break by declaration order: earlier declaration wins.
	tied := New(Config{Classes: []Class{
		{Name: "first", Priority: 1, Deadline: time.Second},
		{Name: "second", Priority: 1, Deadline: time.Second},
	}})
	if tied.Rank(0) <= tied.Rank(1) {
		t.Errorf("declaration-order tie-break: first rank %d, second rank %d", tied.Rank(0), tied.Rank(1))
	}
}

func TestClasslessAlwaysAdmits(t *testing.T) {
	c := New(Config{})
	if c.ClassIndex("anything") != -1 {
		t.Fatal("classless ClassIndex should be -1")
	}
	// Even under enormous observed load, classless controllers admit.
	for i := 0; i < 50; i++ {
		c.Observe(time.Duration(i)*100*time.Millisecond, time.Hour)
	}
	if !c.Admit(5*time.Second, 0) {
		t.Fatal("classless controller rejected a request")
	}
	if c.Ladder() != 0 {
		t.Fatalf("classless ladder = %d, want 0", c.Ladder())
	}
	if c.Load() <= 1 {
		t.Fatalf("load should reflect the huge backlog, got %g", c.Load())
	}
}

// TestLadderMonotoneByPriority pins the ladder→level mapping: at every
// rung, a higher-priority class is never at a worse level than a
// lower-priority one, the lowest class degrades first, and the top class
// never reaches LevelShed.
func TestLadderMonotoneByPriority(t *testing.T) {
	c := New(Config{Classes: threeClasses()})
	gold, silver, bronze := 0, 1, 2
	now := time.Duration(0)
	prev := []Level{LevelFull, LevelFull, LevelFull}
	for rung := 0; ; rung++ {
		if c.Ladder() != rung {
			t.Fatalf("ladder = %d, want %d", c.Ladder(), rung)
		}
		lg, ls, lb := c.Level(gold), c.Level(silver), c.Level(bronze)
		if lg > ls || ls > lb {
			t.Fatalf("rung %d: levels not priority-monotone: gold=%v silver=%v bronze=%v", rung, lg, ls, lb)
		}
		if lg >= LevelShed {
			t.Fatalf("rung %d: top class reached shed", rung)
		}
		if lg < prev[0] || ls < prev[1] || lb < prev[2] {
			t.Fatalf("rung %d: level regressed while climbing", rung)
		}
		prev = []Level{lg, ls, lb}
		// Drive the load far above the next rung's threshold and wait out
		// the dwell; the ladder must move exactly one rung per transition.
		before := c.Ladder()
		for i := 0; i < 10; i++ {
			now += 300 * time.Millisecond
			c.Observe(now, time.Hour)
			if d := c.Ladder() - before; d > 1 {
				t.Fatalf("ladder jumped %d rungs in one window", d)
			}
			if c.Ladder() > before {
				break
			}
		}
		if c.Ladder() == before {
			// Saturated at the top rung.
			if lb != LevelShed || lg != LevelCapped {
				t.Fatalf("top rung %d: bronze=%v gold=%v, want shed/capped", before, lb, lg)
			}
			break
		}
	}
	// Recovery unwinds one rung at a time back to zero.
	for c.Ladder() > 0 {
		before := c.Ladder()
		for i := 0; i < 50 && c.Ladder() == before; i++ {
			now += 300 * time.Millisecond
			c.Observe(now, 0)
		}
		if c.Ladder() != before-1 {
			t.Fatalf("recovery: ladder %d -> %d, want one rung down", before, c.Ladder())
		}
	}
}

// TestLadderMapping holds the rung→level mapping to its three rules for
// one to four classes at every rung the ladder can reach: a higher-priority
// class is never at a worse level than a lower one, the top class never
// sheds, and of three classes the lowest sheds at rung 2.
func TestLadderMapping(t *testing.T) {
	for n := 1; n <= 4; n++ {
		classes := make([]Class, n)
		for i := range classes {
			classes[i] = Class{Name: string(rune('a' + i)), Priority: n - i, Deadline: time.Second}
		}
		c := New(Config{Classes: classes})
		for rung := 0; rung <= c.maxRung; rung++ {
			c.mu.Lock()
			c.ladder = rung
			c.mu.Unlock()
			for i := 1; i < n; i++ {
				if hi, lo := c.Level(i-1), c.Level(i); hi > lo {
					t.Errorf("%d classes, rung %d: class %d at %v, below it class %d at %v", n, rung, i-1, hi, i, lo)
				}
			}
			if top := c.Level(0); top == LevelShed {
				t.Errorf("%d classes, rung %d: the top class sheds", n, rung)
			}
			if n == 3 && rung == 2 && c.Level(2) != LevelShed {
				t.Errorf("3 classes, rung 2: bronze at %v, want shed", c.Level(2))
			}
		}
	}
}

// TestHysteresisNoFlap parks the load exactly on a rung's engage boundary
// and verifies the ladder makes at most one transition: the release
// threshold sits strictly below the engage threshold, so a steady
// boundary load cannot flap the ladder.
func TestHysteresisNoFlap(t *testing.T) {
	tun := Tuning{Capacity: 10, Target: 500 * time.Millisecond}.withDefaults()
	c := New(Config{Classes: threeClasses(), Tuning: tun})
	// backlog such that raw load == ladderBase exactly: raw =
	// backlog/target.
	backlog := time.Duration(ladderBase * float64(tun.Target)) // = 500ms
	transitions := 0
	last := c.Ladder()
	now := time.Duration(0)
	for i := 0; i < 2000; i++ {
		now += 50 * time.Millisecond
		c.Observe(now, backlog)
		if l := c.Ladder(); l != last {
			transitions++
			last = l
		}
	}
	if transitions > 1 {
		t.Fatalf("ladder flapped: %d transitions at a steady boundary load", transitions)
	}
	// And at a load parked exactly on rung 1's release threshold, same story.
	c2 := New(Config{Classes: threeClasses(), Tuning: tun})
	downLoad := ladderBase * downFactor
	backlogDown := time.Duration(downLoad * float64(tun.Target))
	transitions, last, now = 0, c2.Ladder(), 0
	for i := 0; i < 2000; i++ {
		now += 50 * time.Millisecond
		c2.Observe(now, backlogDown)
		if l := c2.Ladder(); l != last {
			transitions++
			last = l
		}
	}
	if transitions > 1 {
		t.Fatalf("ladder flapped at release boundary: %d transitions", transitions)
	}
}

// TestRetryAfterGrowsWithBacklog is the satellite regression: the
// Retry-After hint must be monotone in the observed backlog, not a
// constant.
func TestRetryAfterGrowsWithBacklog(t *testing.T) {
	tun := Tuning{Capacity: 10}
	prev := time.Duration(-1)
	grew := false
	for _, backlog := range []time.Duration{0, time.Second, 5 * time.Second, 20 * time.Second, 100 * time.Second} {
		c := New(Config{Classes: threeClasses(), Tuning: tun})
		now := time.Duration(0)
		for i := 0; i < 20; i++ {
			now += 100 * time.Millisecond
			c.Observe(now, backlog)
		}
		ra := c.RetryAfter()
		if ra < prev {
			t.Fatalf("RetryAfter shrank: backlog %v -> %v (prev %v)", backlog, ra, prev)
		}
		if ra > prev && prev >= 0 {
			grew = true
		}
		prev = ra
	}
	if !grew {
		t.Fatal("RetryAfter never grew as backlog climbed 0 -> 100s")
	}
}

// TestAdmissionPropertySeeds is the 1000-seed property test: under
// randomized class configs, loads and arrival orders, admission is (a)
// priority-monotone — a higher-priority class's admission rate is never
// materially worse than a lower-priority class's under identical offered
// load — and (b) starvation-free — every non-shed class keeps a positive
// admission rate even when higher classes offer unbounded load.
func TestAdmissionPropertySeeds(t *testing.T) {
	const seeds = 1000
	for seed := uint64(1); seed <= seeds; seed++ {
		r := rng.New(seed)
		nClasses := 2 + r.Intn(3) // 2..4
		classes := make([]Class, nClasses)
		prios := r.Perm(nClasses)
		for i := range classes {
			classes[i] = Class{
				Name:     string(rune('a' + i)),
				Priority: prios[i],
				Deadline: 200 * time.Millisecond,
				Weight:   1, // identical weights: admission-rate comparison is pure priority
			}
		}
		capacity := 5 + r.Float64()*45 // 5..50 req/s
		c := New(Config{Classes: classes, Tuning: Tuning{Capacity: capacity}})

		// Offer identical per-class load at 2-6x the controller's capacity
		// while reporting a heavy backlog, so the token buckets bind.
		over := 2 + r.Float64()*4
		perClassRate := capacity * over / float64(nClasses)
		horizon := 5 * time.Second
		backlog := 2 * time.Second // raw load ≈ 4 with default target

		type stat struct{ offered, admitted int }
		stats := make([]stat, nClasses)
		// Identical offered load: one Poisson arrival process, with every
		// arrival offered to all classes simultaneously — lowest priority
		// first, so lower classes get first crack at the shared pool
		// (adversarial to the monotonicity claim).
		order := make([]int, 0, nClasses)
		for rank := 0; rank < nClasses; rank++ {
			for i := 0; i < nClasses; i++ {
				if c.Rank(i) == rank {
					order = append(order, i)
				}
			}
		}
		at, lastObs := time.Duration(0), time.Duration(0)
		for {
			at += time.Duration(r.Exponential(perClassRate) * float64(time.Second))
			if at > horizon {
				break
			}
			for lastObs+50*time.Millisecond <= at {
				lastObs += 50 * time.Millisecond
				c.Observe(lastObs, backlog)
			}
			for _, i := range order {
				stats[i].offered++
				if c.Admit(at, i) {
					stats[i].admitted++
				}
			}
		}

		rate := func(i int) float64 {
			if stats[i].offered == 0 {
				return 1
			}
			return float64(stats[i].admitted) / float64(stats[i].offered)
		}
		_, ladder, snaps := c.Snapshot()
		for i := 0; i < nClasses; i++ {
			for j := 0; j < nClasses; j++ {
				if c.Rank(i) > c.Rank(j) && rate(i)+0.02 < rate(j) {
					t.Fatalf("seed %d: priority inversion: class %s (rank %d) rate %.3f < class %s (rank %d) rate %.3f",
						seed, classes[i].Name, c.Rank(i), rate(i), classes[j].Name, c.Rank(j), rate(j))
				}
			}
			// Starvation-freedom: any class not shed by the ladder that saw
			// meaningful traffic keeps a positive admission rate.
			if snaps[i].Level != LevelShed && stats[i].offered > 20 && stats[i].admitted == 0 {
				t.Fatalf("seed %d: class %s starved (0/%d admitted, level %v, ladder %d)",
					seed, classes[i].Name, stats[i].offered, snaps[i].Level, ladder)
			}
		}
	}
}

// TestAdmitShedsLowestFirst drives overload directly and checks the shed
// counters concentrate on the lowest-priority classes.
func TestAdmitShedsLowestFirst(t *testing.T) {
	c := New(Config{Classes: threeClasses(), Tuning: Tuning{Capacity: 10}})
	now := time.Duration(0)
	// Saturate: heavy backlog for 3 virtual seconds while all classes
	// offer 5x their share.
	for step := 0; step < 600; step++ {
		now += 5 * time.Millisecond
		if step%10 == 0 {
			c.Observe(now, 20*time.Second)
		}
		for cls := 0; cls < 3; cls++ {
			if step%2 == cls%2 {
				c.Admit(now, cls)
			}
		}
	}
	_, _, snaps := c.Snapshot()
	shedRate := func(i int) float64 {
		tot := snaps[i].Admitted + snaps[i].Shed
		if tot == 0 {
			return 0
		}
		return float64(snaps[i].Shed) / float64(tot)
	}
	// gold=idx0 (highest), bronze=idx2 (lowest).
	if shedRate(0) > shedRate(2) {
		t.Fatalf("gold shed rate %.3f > bronze %.3f", shedRate(0), shedRate(2))
	}
	if snaps[2].Shed == 0 {
		t.Fatal("overload shed nothing from the lowest class")
	}
}

func TestSubsetCapAndTruncate(t *testing.T) {
	if SubsetCap(LevelFull, 3) != 3 || SubsetCap(LevelShed, 3) != 3 {
		t.Error("full/shed levels must not cap")
	}
	if got := SubsetCap(LevelCapped, 3); got != 2 {
		t.Errorf("capped cap(3) = %d, want 2", got)
	}
	// The ranking vector is the caller's: here, when each model would finish.
	finish := []time.Duration{20 * time.Millisecond, 80 * time.Millisecond, 90 * time.Millisecond}
	full := ensemble.Empty.With(0).With(1).With(2)
	got := TruncateSubset(full, 2, finish)
	want := ensemble.Empty.With(0).With(1)
	if got != want {
		t.Errorf("truncate to 2 = %v, want the two that finish first %v", got, want)
	}
	if got := TruncateSubset(full, 1, finish); got != ensemble.Empty.With(0) {
		t.Errorf("truncate to 1 = %v, want the model that finishes first", got)
	}
	// No-op when already within cap, and cap<=0 means uncapped.
	if got := TruncateSubset(want, 2, finish); got != want {
		t.Errorf("truncate no-op changed subset: %v", got)
	}
	if got := TruncateSubset(full, 0, finish); got != full {
		t.Errorf("cap 0 should be uncapped, got %v", got)
	}
	// A queue on model 1 moves it behind model 2, and a queue on model 0
	// deep enough moves it behind both.
	queued := []time.Duration{100 * time.Millisecond, 160 * time.Millisecond, 90 * time.Millisecond}
	if got, want := TruncateSubset(full, 2, queued), ensemble.Empty.With(0).With(2); got != want {
		t.Errorf("truncate to 2 by %v = %v, want %v", queued, got, want)
	}
	if got := TruncateSubset(full, 1, queued); got != ensemble.Single(2) {
		t.Errorf("truncate to 1 by %v = %v, want model 2", queued, got)
	}
	// Ties go to the lower index, and a model outside the subset never
	// enters it however soon it would finish.
	tied := []time.Duration{5 * time.Millisecond, 70 * time.Millisecond, 70 * time.Millisecond, 70 * time.Millisecond}
	if got, want := TruncateSubset(ensemble.Empty.With(1).With(2).With(3), 2, tied), ensemble.Empty.With(1).With(2); got != want {
		t.Errorf("truncate a three-way tie to 2 = %v, want %v", got, want)
	}
	if n := testing.AllocsPerRun(100, func() { TruncateSubset(full, 2, queued) }); n != 0 {
		t.Errorf("TruncateSubset allocates %v times per call", n)
	}
}

func TestLevelStrings(t *testing.T) {
	for l, want := range map[Level]string{
		LevelFull: "full", LevelCapped: "capped", LevelShed: "shed",
	} {
		if l.String() != want {
			t.Errorf("%d.String() = %q, want %q", l, l.String(), want)
		}
	}
}

// TestDeterministicReplay pins that the controller is a pure function of
// its call sequence: two controllers fed the same virtual-time calls
// agree on every decision.
func TestDeterministicReplay(t *testing.T) {
	mk := func() *Controller {
		return New(Config{Classes: threeClasses(), Tuning: Tuning{Capacity: 8}})
	}
	a, b := mk(), mk()
	r := rng.New(42)
	now := time.Duration(0)
	for i := 0; i < 5000; i++ {
		now += time.Duration(r.Exponential(100) * float64(time.Second))
		switch r.Intn(3) {
		case 0:
			c := r.Intn(3)
			if a.Admit(now, c) != b.Admit(now, c) {
				t.Fatalf("step %d: Admit diverged", i)
			}
		case 1:
			bl := time.Duration(r.Intn(100)) * 125 * time.Millisecond
			a.Observe(now, bl)
			b.Observe(now, bl)
		case 2:
			if a.Ladder() != b.Ladder() || a.Load() != b.Load() {
				t.Fatalf("step %d: state diverged", i)
			}
		}
	}
}

// TestRetryAfterExtremeLoad is the overflow regression: with a tiny
// target and the largest backlog a Duration holds the load*Target product
// reaches 2^63 nanoseconds, and the naive conversion wrapped negative —
// an overloaded server telling clients to retry immediately. The hint
// must stay clamped to [Target, maxRetryAfter] at every load.
func TestRetryAfterExtremeLoad(t *testing.T) {
	c := New(Config{Classes: threeClasses(), Tuning: Tuning{Target: time.Nanosecond}})
	now := time.Duration(0)
	for i := 0; i < 50; i++ {
		now += 100 * time.Millisecond
		c.Observe(now, math.MaxInt64)
	}
	if load := c.Load(); load < 1e12 {
		t.Fatalf("load = %g; fixture failed to reach an overflowing regime", load)
	}
	ra := c.RetryAfter()
	if ra <= 0 {
		t.Fatalf("RetryAfter = %v under extreme load; overflow wrapped negative", ra)
	}
	if ra != maxRetryAfter {
		t.Errorf("RetryAfter = %v, want the %v cap", ra, maxRetryAfter)
	}
}

// TestRetryAfterIdleAndNaN pins the two degenerate regimes: an idle
// controller (load 0, or never observed) hints exactly one Target, and a
// NaN load — unreachable through the public API, but guarded so a future
// estimator bug degrades to the cap instead of a negative header.
func TestRetryAfterIdleAndNaN(t *testing.T) {
	c := New(Config{Classes: threeClasses(), Tuning: Tuning{Capacity: 10}})
	if got := c.RetryAfter(); got != c.tun.Target {
		t.Errorf("unobserved RetryAfter = %v, want Target %v", got, c.tun.Target)
	}
	c.Observe(100*time.Millisecond, 0)
	if got := c.RetryAfter(); got != c.tun.Target {
		t.Errorf("idle RetryAfter = %v, want Target %v", got, c.tun.Target)
	}
	c.mu.Lock()
	c.load = math.NaN()
	c.mu.Unlock()
	if got := c.RetryAfter(); got != maxRetryAfter {
		t.Errorf("NaN-load RetryAfter = %v, want the %v cap", got, maxRetryAfter)
	}
}

// TestRetryAfterMonotoneThroughCap sweeps loads across twelve orders of
// magnitude: the hint must be non-decreasing all the way into the cap.
func TestRetryAfterMonotoneThroughCap(t *testing.T) {
	prev := time.Duration(-1)
	for exp := 0; exp <= 12; exp++ {
		c := New(Config{Classes: threeClasses(), Tuning: Tuning{Capacity: 10}})
		c.mu.Lock()
		c.load = math.Pow(10, float64(exp))
		c.seen = true
		c.mu.Unlock()
		ra := c.RetryAfter()
		if ra < prev {
			t.Fatalf("RetryAfter shrank at load 1e%d: %v (prev %v)", exp, ra, prev)
		}
		if ra <= 0 || ra > maxRetryAfter {
			t.Fatalf("RetryAfter = %v at load 1e%d, outside (0, %v]", ra, exp, maxRetryAfter)
		}
		prev = ra
	}
}

// TestTimeAtLevel: on a scripted load, each class's time at each level adds
// up to the virtual time between the first and the latest observation, and
// while the top class is held at capped it accrues capped time only.
func TestTimeAtLevel(t *testing.T) {
	c := New(Config{Classes: threeClasses(), Tuning: Tuning{Capacity: 10}})
	gold := c.ClassIndex("gold")
	src := rng.New(3)
	start := 7 * time.Second
	now := start
	observe := func(backlog time.Duration) {
		now += time.Duration(1+src.Intn(100)) * time.Millisecond
		c.Observe(now, backlog)
	}
	c.Observe(now, 0)
	for i := 0; i < 200; i++ {
		observe(time.Duration(src.Intn(1000)) * time.Millisecond) // load under 2: gold stays at full
	}
	for c.Level(gold) != LevelCapped {
		observe(time.Hour)
	}
	_, _, before := c.Snapshot()
	if got := before[gold].TimeAtLevel[LevelCapped]; got != 0 {
		t.Errorf("gold reached capped at the latest observation, yet has %v there", got)
	}
	held := now
	for i := 0; i < 50; i++ {
		observe(time.Hour)
	}
	_, _, after := c.Snapshot()
	for i, cs := range after {
		var sum time.Duration
		for _, d := range cs.TimeAtLevel {
			sum += d
		}
		if sum != now-start {
			t.Errorf("%s: time at levels %v sums to %v, %v elapsed", cs.Name, cs.TimeAtLevel, sum, now-start)
		}
		if cs.TimeAtLevel[LevelFull] == 0 || (i != gold && cs.TimeAtLevel[LevelShed] == 0) {
			t.Errorf("%s: time at levels %v: the script lost its point", cs.Name, cs.TimeAtLevel)
		}
	}
	for l := range after[gold].TimeAtLevel {
		want := before[gold].TimeAtLevel[l]
		if Level(l) == LevelCapped {
			want += now - held
		}
		if got := after[gold].TimeAtLevel[l]; got != want {
			t.Errorf("gold at %v: %v after %v held at capped, want %v", Level(l), got, now-held, want)
		}
	}
}
