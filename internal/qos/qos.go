// Package qos is the serving runtime's overload-control core, driven by
// internal/engine: multi-class admission control, a load estimator, and a
// degradation ladder. All methods take the caller's virtual clock, and
// nothing here reads the wall clock or draws randomness, so a replay of the
// same observations makes the same decisions.
//
// The model: requests belong to classes (tenant/priority tiers), each
// with a priority, a default deadline, and a weighted share of the
// runtime's estimated service capacity. A load estimator smooths the
// backlog (seconds of service work, which internal/engine reads off the
// capacity view it plans against: a count would weigh a queued 2 ms task
// like a 90 ms one) into a single pressure figure. From that figure a
// hysteresis-guarded degradation ladder assigns every class a service
// level — full, capped, or shed — always degrading the
// lowest-priority classes first and restoring them last. Admission is
// enforced by per-class token buckets refilled at the class's weighted
// share of capacity, with surplus tokens spilling into a shared pool that
// higher-priority classes can drain deeper than lower ones, so borrowing
// never starves a class of its reserved share and shedding always draws
// from the lowest priorities (or over-quota traffic) first — never at
// random.
package qos

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"schemble/internal/ensemble"
)

// Class is one request class (a tenant or priority tier).
type Class struct {
	// Name identifies the class in APIs, stats and metrics labels.
	Name string
	// Priority orders protection under overload: higher-priority classes
	// degrade later and shed last. Ties are broken by declaration order
	// (earlier declaration = higher effective priority).
	Priority int
	// Deadline is the class's default relative deadline, used when a
	// request does not carry an explicit one.
	Deadline time.Duration
	// Weight is the class's share of admission capacity relative to the
	// other classes' weights; non-positive means 1.
	Weight float64
}

// Level is a class's current service level on the degradation ladder.
type Level uint8

const (
	// LevelFull plans the class with the configured scheduler, uncapped.
	LevelFull Level = iota
	// LevelCapped keeps the configured scheduler but caps the subset size,
	// trading accuracy for capacity; results are marked Degraded.
	LevelCapped
	// LevelShed rejects the class's new requests at admission.
	LevelShed
)

// String names the level for stats and metrics.
func (l Level) String() string {
	if names := [...]string{"full", "capped", "shed"}; int(l) < len(names) {
		return names[l]
	}
	return fmt.Sprintf("level-%d", uint8(l))
}

// Tuning are the admission controller's knobs. The zero value means
// defaults, which is what production configs should start from.
type Tuning struct {
	// Capacity is the estimated sustainable service rate in requests per
	// virtual second. 0 means the caller's estimate (engines derive it
	// from profiled latencies and replica counts). It sets the token refill
	// rates and prices a still-buffered query at 1/Capacity seconds of
	// backlog; the work committed to the models is measured, not derived.
	Capacity float64
	// Target is the backlog — virtual seconds of queued service work, the
	// unit Observe takes — regarded as full utilization: load 1.0 means
	// "Target seconds of work is waiting". Default 500ms.
	Target time.Duration
}

// The controller's fixed tuning.
const (
	// tau is the load EWMA's time constant; observations older than a few
	// tau stop mattering.
	tau = 200 * time.Millisecond
	// gateLoad is the smoothed load below which admission is unconditional
	// (token buckets only bind under overload).
	gateLoad = 1.0
	// ladderBase and ladderStep place the degradation ladder's rungs: step
	// s engages when load >= ladderBase + s*ladderStep.
	ladderBase, ladderStep = 1.0, 0.5
	// downFactor scales a rung's engage threshold into its release
	// threshold (hysteresis): step s disengages only when load falls below
	// (ladderBase + (s-1)*ladderStep) * downFactor.
	downFactor = 0.7
	// dwell is the minimum virtual time between ladder transitions, so a
	// load hovering exactly on a rung cannot flap the ladder.
	dwell = 250 * time.Millisecond
	// burstTime sizes each class's token bucket as this many seconds of its
	// reserved rate.
	burstTime = time.Second
)

// Config configures a Controller.
type Config struct {
	// Classes declares the request classes. Empty means classless: the
	// load estimator still runs (for load-derived Retry-After hints) but
	// every admission decision is "admit" and the ladder stays at zero.
	Classes []Class
	Tuning  Tuning
}

// withDefaults resolves zero tuning fields.
func (t Tuning) withDefaults() Tuning {
	if t.Capacity <= 0 {
		t.Capacity = 1
	}
	if t.Target <= 0 {
		t.Target = 500 * time.Millisecond
	}
	return t
}

// classState is one class's admission bookkeeping.
type classState struct {
	cls  Class
	rank int // 0 = lowest priority; C-1 = highest
	// rate is the class's reserved refill rate (tokens per virtual
	// second); burst caps the bucket.
	rate, burst float64
	// floor is how many pool tokens must remain untouched when this class
	// borrows — the cumulative reserve of every higher-priority class, so
	// borrowing can never exhaust what higher tiers may need next.
	floor  float64
	tokens float64

	admitted, shed uint64
	// atLevel[l] is the virtual time the class has spent at Level l.
	atLevel [LevelShed + 1]time.Duration
}

// Controller is the shared overload-control state machine. All methods
// are safe for concurrent use; every method takes (or derives from) the
// caller's virtual clock, so a (Config, call-sequence) pair replays
// bit-identically.
type Controller struct {
	mu  sync.Mutex
	tun Tuning

	// classes' per-class token buckets and shed counters mutate under mu;
	// the cls/rank/rate/floor configuration is written once in New.
	//schemble:guardedby mu token buckets and counters mutate under mu
	classes []classState
	byName  map[string]int
	// defaultIdx is the class unnamed/unknown requests map to: the
	// lowest-priority class (untagged traffic never lands in a protected
	// tier).
	defaultIdx int

	load     float64       //schemble:guardedby mu smoothed load estimate
	seen     bool          //schemble:guardedby mu first-observation latch
	lastObs  time.Duration //schemble:guardedby mu estimator clock
	ladder   int           //schemble:guardedby mu degradation rung
	maxRung  int
	sinceLad time.Duration //schemble:guardedby mu ladder dwell clock

	lastRefill time.Duration //schemble:guardedby mu bucket refill clock
	pool       float64       //schemble:guardedby mu shared borrow pool
	poolCap    float64
}

// New builds a controller. Classes must have unique non-empty names and
// positive deadlines; an empty class list builds a classless controller
// (load estimation only).
func New(cfg Config) *Controller {
	tun := cfg.Tuning.withDefaults()
	c := &Controller{
		tun:    tun,
		byName: make(map[string]int, len(cfg.Classes)),
	}
	if len(cfg.Classes) == 0 {
		return c
	}
	sumW := 0.0
	for i, cl := range cfg.Classes {
		if cl.Name == "" {
			panic("qos: class name must be non-empty")
		}
		if _, dup := c.byName[cl.Name]; dup {
			panic("qos: duplicate class name " + cl.Name)
		}
		if cl.Deadline <= 0 {
			panic("qos: class " + cl.Name + " needs a positive Deadline")
		}
		if cl.Weight <= 0 {
			cl.Weight = 1
		}
		c.byName[cl.Name] = i
		c.classes = append(c.classes, classState{cls: cl})
		sumW += cl.Weight
	}
	// Rank by priority ascending, declaration order breaking ties (the
	// earlier-declared class outranks the later one, so its index sorts
	// later in this ascending order).
	idx := make([]int, len(c.classes))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		//schemble:guardedby-ok comparator runs inline inside New before the controller is published
		pa, pb := c.classes[idx[a]].cls.Priority, c.classes[idx[b]].cls.Priority
		if pa != pb {
			return pa < pb
		}
		return idx[a] > idx[b]
	})
	for rank, i := range idx {
		c.classes[i].rank = rank
	}
	burstS := burstTime.Seconds()
	for i := range c.classes {
		cs := &c.classes[i]
		cs.rate = tun.Capacity * cs.cls.Weight / sumW
		cs.burst = cs.rate * burstS
		if cs.burst < 1 {
			cs.burst = 1
		}
		cs.tokens = cs.burst // start full: a cold start admits a burst
	}
	// Pool floors: each class leaves half a burst's worth of room for
	// every strictly-higher-priority class, so the borrowing tier is
	// priority-monotone by construction (the top class drains the pool to
	// zero; the bottom class only skims the surplus).
	for i := range c.classes {
		cs := &c.classes[i]
		for j := range c.classes {
			if c.classes[j].rank > cs.rank {
				cs.floor += c.classes[j].burst / 2
			}
		}
	}
	c.poolCap = tun.Capacity * burstS
	if c.poolCap < 1 {
		c.poolCap = 1
	}
	c.defaultIdx = idx[0]
	// Top ladder rung: the highest-priority class degrades at most to
	// LevelCapped — admission-shedding it is never the controller's call
	// (hard saturation is the runtime's queue-rejection job).
	c.maxRung = len(c.classes) - 1 + int(LevelCapped)
	return c
}

// Classes reports how many classes are configured (0 = classless).
//
//schemble:guardedby-ok the classes slice header and class config are immutable after New; only element counters mutate under mu
func (c *Controller) Classes() int { return len(c.classes) }

// Class returns class i's declaration.
//
//schemble:guardedby-ok cls is written once in New and never mutated; no lock needed for this immutable read
func (c *Controller) Class(i int) Class { return c.classes[i].cls }

// ClassIndex maps a class name to its index. Unknown or empty names map
// to the lowest-priority class; a classless controller returns -1.
func (c *Controller) ClassIndex(name string) int {
	//schemble:guardedby-ok slice header is immutable after New; len is safe without the lock
	if len(c.classes) == 0 {
		return -1
	}
	if i, ok := c.byName[name]; ok {
		return i
	}
	return c.defaultIdx
}

// Rank returns class i's priority rank (0 = lowest priority).
//
//schemble:guardedby-ok rank is written once in New and never mutated; no lock needed for this immutable read
func (c *Controller) Rank(i int) int { return c.classes[i].rank }

// Observe feeds the load estimator one measurement: backlog is the service
// work waiting in the engine, in virtual seconds of it (what the most loaded
// model has yet to drain, plus what the buffered queries will take). now is
// the caller's virtual clock.
func (c *Controller) Observe(now, backlog time.Duration) {
	raw := backlog.Seconds() / c.tun.Target.Seconds()
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.seen {
		c.load = raw
		c.seen = true
		c.lastObs = now
		c.sinceLad = now
	} else {
		dt := now - c.lastObs
		if dt < 0 {
			dt = 0
		}
		c.lastObs = now
		// The levels held since the last observation: only this method
		// moves the ladder.
		for i := range c.classes {
			c.classes[i].atLevel[c.levelAtLocked(i)] += dt
		}
		w := 1 - math.Exp(-dt.Seconds()/tau.Seconds())
		c.load += w * (raw - c.load)
	}
	c.stepLadderLocked(now)
}

// stepLadderLocked moves the ladder at most one rung, honoring hysteresis
// (release thresholds sit below engage thresholds) and the minimum dwell
// time, so a steady load parked exactly on a rung boundary can never flap
// the ladder.
func (c *Controller) stepLadderLocked(now time.Duration) {
	if len(c.classes) == 0 {
		return
	}
	if now-c.sinceLad < dwell {
		return
	}
	up := ladderBase + float64(c.ladder)*ladderStep
	if c.ladder < c.maxRung && c.load >= up {
		c.ladder++
		c.sinceLad = now
		return
	}
	if c.ladder > 0 {
		down := (ladderBase + float64(c.ladder-1)*ladderStep) * downFactor
		if c.load < down {
			c.ladder--
			c.sinceLad = now
		}
	}
}

// Load returns the smoothed pressure estimate: ~0 idle, 1 at the target
// backlog, and climbing without bound as the backlog grows.
func (c *Controller) Load() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.load
}

// Ladder returns the current ladder rung (0 = full service for all).
func (c *Controller) Ladder() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ladder
}

// levelAtLocked is the ladder→class mapping: rung s puts the class ranked
// r (0 = lowest) at level min(s-r, LevelShed) — the bottom class degrades
// first and sheds first, each higher class trails one rung behind, and
// restoration unwinds in exactly the reverse order.
func (c *Controller) levelAtLocked(i int) Level {
	return Level(min(max(c.ladder-c.classes[i].rank, 0), int(LevelShed)))
}

// Level returns class i's current service level.
func (c *Controller) Level(i int) Level {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.levelAtLocked(i)
}

// refillLocked advances the token buckets to now: every class accrues its
// reserved rate, overflow beyond its burst spills into the shared pool.
func (c *Controller) refillLocked(now time.Duration) {
	dt := now - c.lastRefill
	if dt <= 0 {
		return
	}
	c.lastRefill = now
	sec := dt.Seconds()
	for i := range c.classes {
		cs := &c.classes[i]
		cs.tokens += cs.rate * sec
		if cs.tokens > cs.burst {
			c.pool += cs.tokens - cs.burst
			cs.tokens = cs.burst
		}
	}
	if c.pool > c.poolCap {
		c.pool = c.poolCap
	}
}

// Admit decides whether a class-i request arriving at virtual time now
// may enter the engine. Classless controllers always admit. Under the
// gate load everything is admitted (buckets refill meanwhile, so the
// overload transition starts with full bursts); above it, a request needs
// a token from its class's reserved bucket or from the shared surplus
// pool — where lower-priority classes must leave the higher tiers'
// headroom untouched. A class at LevelShed on the ladder is rejected
// outright.
func (c *Controller) Admit(now time.Duration, i int) bool {
	if len(c.classes) == 0 {
		return true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.refillLocked(now)
	cs := &c.classes[i]
	if c.levelAtLocked(i) == LevelShed {
		cs.shed++
		return false
	}
	if c.load < gateLoad {
		cs.admitted++
		return true
	}
	if cs.tokens >= 1 {
		cs.tokens--
		cs.admitted++
		return true
	}
	if c.pool-cs.floor >= 1 {
		c.pool--
		cs.admitted++
		return true
	}
	cs.shed++
	return false
}

// maxRetryAfter caps the back-off hint: past an hour the estimate carries
// no information a client could act on, and capping in float space keeps
// the load*Target product from overflowing time.Duration's int64 range
// under extreme backlogs.
const maxRetryAfter = time.Hour

// RetryAfter derives a back-off hint from the load estimate: roughly how
// long (virtual time) until the smoothed backlog drains, clamped to
// [Target, maxRetryAfter]. Callers convert to wall time and round up to
// whole seconds for the HTTP header.
func (c *Controller) RetryAfter() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	f := c.load * float64(c.tun.Target)
	// Compare before converting: a huge or NaN product would wrap or
	// poison the int64 conversion, turning an overload hint negative.
	if math.IsNaN(f) || f > float64(maxRetryAfter) {
		return maxRetryAfter
	}
	d := time.Duration(f)
	if d < c.tun.Target {
		d = c.tun.Target
	}
	return d
}

// ClassSnapshot is one class's point-in-time admission state.
type ClassSnapshot struct {
	Name     string
	Priority int
	Weight   float64
	// Level is the class's current service level on the ladder.
	Level Level
	// Admitted and Shed count this controller's admission decisions.
	Admitted, Shed uint64
	// Tokens is the reserved bucket's current fill; Rate its refill rate
	// (requests per virtual second).
	Tokens, Rate float64
	// TimeAtLevel[l] is the virtual time the class has spent at Level l,
	// from the first Observe to the latest.
	TimeAtLevel [LevelShed + 1]time.Duration
}

// Snapshot captures the controller's admission state: smoothed load,
// ladder rung, and per-class levels/counters, in declaration order.
func (c *Controller) Snapshot() (load float64, ladder int, classes []ClassSnapshot) {
	c.mu.Lock()
	defer c.mu.Unlock()
	classes = make([]ClassSnapshot, len(c.classes))
	for i := range c.classes {
		cs := &c.classes[i]
		classes[i] = ClassSnapshot{
			Name:     cs.cls.Name,
			Priority: cs.cls.Priority,
			Weight:   cs.cls.Weight,
			Level:    c.levelAtLocked(i),
			Admitted: cs.admitted,
			Shed:     cs.shed,
			Tokens:   cs.tokens,
			Rate:     cs.rate,

			TimeAtLevel: cs.atLevel,
		}
	}
	return c.load, c.ladder, classes
}

// SubsetCap is the per-level subset-size cap internal/engine applies to
// degraded plans: capped classes run at most half the ensemble (rounded
// up), everything else uncapped.
func SubsetCap(l Level, m int) int {
	if l == LevelCapped {
		return (m + 1) / 2
	}
	return m
}

// TruncateSubset enforces a subset-size cap on a planned subset, keeping
// the cap models of least cost (ties to the lower index). cost[k] is what the
// caller ranks model k by: internal/engine passes when each model would
// finish the query's task, so capped traffic spreads as the fleet fills.
// Nothing is allocated.
func TruncateSubset(sub ensemble.Subset, cap int, cost []time.Duration) ensemble.Subset {
	if cap <= 0 || sub.Size() <= cap {
		return sub
	}
	out := ensemble.Empty
	for n := 0; n < cap; n++ {
		best := -1
		for k := range cost {
			if sub.Contains(k) && !out.Contains(k) && (best < 0 || cost[k] < cost[best]) {
				best = k
			}
		}
		out = out.With(best)
	}
	return out
}
