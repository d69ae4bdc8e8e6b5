// Package rcache implements a deterministic, difficulty-gated result
// cache over the ensemble's feature space. Queries are keyed by k-means
// centroid assignment (internal/cluster): at millions of users queries
// repeat, and two queries mapping to the same competence region are close
// enough that the easy ones — as judged by the discrepancy predictor's
// difficulty score — can share a cached answer. Hard queries always run
// the ensemble: the difficulty threshold is the admission gate that
// bounds the quality cost of approximate sharing.
//
// The cache is engine-agnostic in the internal/qos mold: every method
// takes the caller's clock, and there is no wall time, randomness, or
// goroutine inside, so the serving runtime (internal/serve, its clock
// scaled to virtual) hands it virtual time and a fixed (Config,
// call-sequence) replays bit-identically. Eviction is LRU on
// the call order, staleness is bounded by a virtual-time TTL checked at
// lookup, and capacity is a hard bound enforced at fill.
package rcache

import (
	"sync"
	"time"

	"schemble/internal/cluster"
	"schemble/internal/ensemble"
	"schemble/internal/model"
	"schemble/internal/obsv"
)

// Keyer maps a query's feature vector to a discrete cache key. The
// second result reports whether the vector is keyable at all; false
// (wrong feature space, empty model) forces a bypass, because a key that
// aliases across feature spaces would serve unrelated answers.
type Keyer interface {
	Key(features []float64) (key int, ok bool)
}

// CentroidKeyer keys queries by nearest-centroid assignment on a fitted
// k-means model. The key space is [0, KM.K()).
type CentroidKeyer struct {
	KM *cluster.KMeans
}

// Key implements Keyer. Dimension-mismatched vectors are unkeyable
// rather than a panic: the cache must degrade to bypass, not take the
// serving path down.
func (ck CentroidKeyer) Key(features []float64) (int, bool) {
	if ck.KM == nil || ck.KM.K() == 0 || len(features) != ck.KM.Dim() {
		return 0, false
	}
	return ck.KM.Assign(features), true
}

// Config configures a Cache. The zero value disables caching entirely
// (New returns nil), which is the bit-identity guarantee: an unconfigured
// runtime takes exactly the pre-cache code paths.
type Config struct {
	// Keyer derives cache keys from feature vectors; nil disables the
	// cache.
	Keyer Keyer
	// Capacity bounds the number of live entries; the least recently
	// used entry is evicted to make room. Default 1024.
	Capacity int
	// TTL bounds staleness in virtual time: an entry older than TTL at
	// lookup is expired (counted, removed, and treated as a miss).
	// 0 means entries never expire.
	TTL time.Duration
	// DifficultyMax is the admission gate: only queries whose difficulty
	// score is at or below it are cacheable. Harder queries bypass the
	// cache in both directions — they are never served from it and never
	// fill it.
	DifficultyMax float64
}

// Enabled reports whether this configuration turns the cache on.
func (c Config) Enabled() bool { return c.Keyer != nil }

// Value is one cached ensemble answer: the aggregated output and the
// subset that produced it (reported to clients so a cached result is
// attributable like a computed one).
type Value struct {
	Output model.Output
	Subset ensemble.Subset
}

type entry struct {
	key        int
	val        Value
	filledAt   time.Duration
	prev, next *entry
}

// Cache is the shared cache instance. Safe for concurrent use; all
// ordering-relevant state advances only on Lookup/Fill calls.
type Cache struct {
	mu  sync.Mutex
	cfg Config
	//schemble:guardedby mu live entry table
	entries map[int]*entry
	//schemble:guardedby mu LRU list links
	head, tail *entry // LRU order; head is most recently used

	//schemble:guardedby mu lookup outcome counters
	hits, misses, bypasses uint64
	//schemble:guardedby mu store/eviction counters
	fills, evicts, expiries uint64
}

// New returns a cache for cfg, or nil when cfg does not enable one.
func New(cfg Config) *Cache {
	if !cfg.Enabled() {
		return nil
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = 1024
	}
	return &Cache{cfg: cfg, entries: make(map[int]*entry)}
}

// Lookup consults the cache for a query with the given features and
// difficulty score at virtual time now. It returns the cached value on a
// hit, the cache key (valid on hit and miss; -1 on bypass), and the
// obsv.CacheOutcome* label. Exactly one of hit/miss/bypass is counted
// per call. A miss means the query is cacheable: the caller should Fill
// the returned key once the query resolves cleanly.
func (c *Cache) Lookup(now time.Duration, features []float64, score float64) (Value, int, string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if score > c.cfg.DifficultyMax {
		c.bypasses++
		return Value{}, -1, obsv.CacheOutcomeBypass
	}
	key, ok := c.cfg.Keyer.Key(features)
	if !ok {
		c.bypasses++
		return Value{}, -1, obsv.CacheOutcomeBypass
	}
	e := c.entries[key]
	if e == nil {
		c.misses++
		return Value{}, key, obsv.CacheOutcomeMiss
	}
	if c.cfg.TTL > 0 && now-e.filledAt > c.cfg.TTL {
		c.unlinkLocked(e)
		delete(c.entries, key)
		c.expiries++
		c.misses++
		return Value{}, key, obsv.CacheOutcomeMiss
	}
	c.touchLocked(e)
	c.hits++
	return e.val, key, obsv.CacheOutcomeHit
}

// Fill stores the resolved value for key at virtual time now, evicting
// the least recently used entry if the cache is full. Refilling an
// existing key refreshes its value and TTL clock.
func (c *Cache) Fill(now time.Duration, key int, v Value) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.entries[key]; e != nil {
		e.val, e.filledAt = v, now
		c.touchLocked(e)
		c.fills++
		return
	}
	if len(c.entries) >= c.cfg.Capacity {
		lru := c.tail
		c.unlinkLocked(lru)
		delete(c.entries, lru.key)
		c.evicts++
	}
	e := &entry{key: key, val: v, filledAt: now}
	c.entries[key] = e
	c.pushFrontLocked(e)
	c.fills++
}

// touchLocked moves e to the front of the LRU list. Callers hold c.mu.
func (c *Cache) touchLocked(e *entry) {
	if c.head == e {
		return
	}
	c.unlinkLocked(e)
	c.pushFrontLocked(e)
}

func (c *Cache) pushFrontLocked(e *entry) {
	e.prev, e.next = nil, c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *Cache) unlinkLocked(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// Snapshot is a point-in-time view of the cache counters.
type Snapshot struct {
	Entries  int
	Capacity int
	// Lookup outcomes; Hits+Misses+Bypasses equals the number of Lookup
	// calls (exactly-once accounting).
	Hits     uint64
	Misses   uint64
	Bypasses uint64
	// Fills counts stores (inserts and refreshes); Evictions counts
	// capacity evictions; Expirations counts TTL removals at lookup.
	Fills       uint64
	Evictions   uint64
	Expirations uint64
	// HitRate is Hits/(Hits+Misses), 0 before any keyed lookup.
	// Bypasses are excluded: the gate is a policy choice, not a cache
	// failure.
	HitRate float64
}

// Snapshot returns the current counters.
func (c *Cache) Snapshot() Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Snapshot{
		Entries:     len(c.entries),
		Capacity:    c.cfg.Capacity,
		Hits:        c.hits,
		Misses:      c.misses,
		Bypasses:    c.bypasses,
		Fills:       c.fills,
		Evictions:   c.evicts,
		Expirations: c.expiries,
	}
	if keyed := s.Hits + s.Misses; keyed > 0 {
		s.HitRate = float64(s.Hits) / float64(keyed)
	}
	return s
}
