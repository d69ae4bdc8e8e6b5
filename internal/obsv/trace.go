package obsv

import (
	"encoding/json"
	"sync"
	"time"

	"schemble/internal/ensemble"
	"schemble/internal/metrics"
)

// Outcome labels for DecisionTrace.Outcome, matching the serving runtime's
// Result taxonomy.
const (
	OutcomeServed   = "served"
	OutcomeDegraded = "degraded"
	OutcomeMissed   = "missed"
	OutcomeRejected = "rejected"
)

// Outcomes lists every outcome label, in severity order.
var Outcomes = []string{OutcomeServed, OutcomeDegraded, OutcomeMissed, OutcomeRejected}

// Outcome is an outcome as an index into Outcomes, for counters kept per
// outcome: a request is classified once and every counter indexed by it.
type Outcome uint8

const (
	Served Outcome = iota
	Degraded
	Missed
	Rejected
	// NumOutcomes sizes an array indexed by Outcome.
	NumOutcomes = iota
)

// Cache-outcome labels for DecisionTrace.Cache, matching the result
// cache's lookup taxonomy (internal/rcache): a hit is served from the
// cache without dispatch, a miss runs the ensemble and fills on a clean
// resolve, and a bypass is a query the difficulty gate (or an unkeyable
// feature vector) excluded from caching entirely. Dispatch sites over
// this family are checked exhaustively by the exhaustiveoutcome
// analyzer, exactly like the Outcome* family.
const (
	CacheOutcomeHit    = "hit"
	CacheOutcomeMiss   = "miss"
	CacheOutcomeBypass = "bypass"
)

// CacheOutcomes lists every cache-outcome label.
var CacheOutcomes = []string{CacheOutcomeHit, CacheOutcomeMiss, CacheOutcomeBypass}

// Alternative is one candidate subset the scheduler weighed for a query,
// with its profiled reward at the query's discrepancy score.
type Alternative struct {
	Subset []int   `json:"subset"`
	Reward float64 `json:"reward"`
}

// DecisionTrace is one request's structured decision record: why it got
// the subset it got, what the runtime looked like at decision time, and
// how it resolved. All durations are virtual (unscaled) time; phase
// timestamps are measured since server start. Zero phase values mean the
// request never reached that phase (e.g. a rejected request is never
// committed).
type DecisionTrace struct {
	// ID is the submission sequence number (1-based).
	ID       uint64
	SampleID int
	CameraID int
	// Class is the request's class name (empty for classless configs);
	// Ladder is the degradation-ladder rung the controller sat on when the
	// request arrived (0 = full service).
	Class  string
	Ladder int
	// Level is the service level the query was committed at, which the
	// ladder may have moved since it arrived: "capped", or empty at full
	// service (and so for every classless trace).
	Level string
	// Score is the predicted discrepancy score the cache was gated and the
	// scheduler planned with. Scoring precedes admission, so a shed request
	// carries it too.
	Score float64

	// Phase timestamps: queued (arrival) -> scored -> committed ->
	// resolved.
	Queued    time.Duration
	Scored    time.Duration
	Committed time.Duration
	Resolved  time.Duration
	// Deadline is the absolute virtual deadline.
	Deadline time.Duration
	// Latency is Resolved - Queued (set for every outcome, unlike
	// Result.Latency which is zero for misses).
	Latency time.Duration

	// Decision context captured when the coordinator committed the query.
	Subset []int // chosen subset (model indices)
	// Planned is the subset the scheduler chose, when Subset is not it: a
	// model in Planned and not in Subset was blocked (see Blocked) or cut by
	// the level's cap, which keeps the models that would finish first (see
	// BusyUntil). Empty when the plan was committed whole. It stays a
	// bitmask until the trace is marshalled: the commit allocates nothing
	// for it.
	Planned ensemble.Subset
	// Early is the models of Subset whose task ran, or was queued, ahead of
	// the commit, while the query waited on the rest of its plan: the commit
	// dispatched the others. A bitmask until marshalled, like Planned.
	Early        ensemble.Subset
	Alternatives []Alternative // top candidate subsets by profiled reward
	QueueDepths  []int         // per-model task-queue occupancy
	// BusyUntil is each model's earliest replica availability — the
	// capacity signal the scheduler's feasibility checks keyed on.
	BusyUntil []time.Duration
	Blocked   []int // models masked by open breakers
	// Drift lists the adaptation layer's active drift signals at commit
	// time ("latency:<k>" per drifting model, "score" for difficulty
	// drift); nil when adaptation is off or no drift is active,
	// preserving the pre-adaptation trace wire format verbatim.
	Drift []string

	// Mitigation events observed while in flight.
	Retries  int
	Hedges   int
	Timeouts int

	// Outcome is one of the Outcome* labels; Served lists the models whose
	// outputs were actually aggregated (a strict subset of Subset for
	// degraded results, empty for misses and rejections).
	Outcome string
	Served  []int
	// Cache is the result-cache outcome for this request — one of the
	// CacheOutcome* labels, or empty when the runtime has no cache
	// configured (preserving the pre-cache trace wire format verbatim).
	// The lookup precedes admission, so on a rejected request it says why
	// the cache could not answer instead: bypass (too hard) or miss (no
	// live entry).
	Cache string
}

// traceJSON is the wire form of a DecisionTrace: durations in
// microseconds, matching the metrics JSONL convention.
type traceJSON struct {
	ID           uint64        `json:"id"`
	SampleID     int           `json:"sample_id"`
	CameraID     int           `json:"camera_id,omitempty"`
	Class        string        `json:"class,omitempty"`
	Ladder       int           `json:"ladder,omitempty"`
	Level        string        `json:"level,omitempty"`
	Score        float64       `json:"score"`
	QueuedUS     int64         `json:"queued_us"`
	ScoredUS     int64         `json:"scored_us,omitempty"`
	CommittedUS  int64         `json:"committed_us,omitempty"`
	ResolvedUS   int64         `json:"resolved_us"`
	DeadlineUS   int64         `json:"deadline_us"`
	LatencyUS    int64         `json:"latency_us"`
	Subset       []int         `json:"subset,omitempty"`
	Planned      []int         `json:"planned,omitempty"`
	Early        []int         `json:"early,omitempty"`
	Alternatives []Alternative `json:"alternatives,omitempty"`
	QueueDepths  []int         `json:"queue_depths,omitempty"`
	BusyUntilUS  []int64       `json:"busy_until_us,omitempty"`
	Blocked      []int         `json:"blocked,omitempty"`
	Drift        []string      `json:"drift,omitempty"`
	Retries      int           `json:"retries,omitempty"`
	Hedges       int           `json:"hedges,omitempty"`
	Timeouts     int           `json:"timeouts,omitempty"`
	Outcome      string        `json:"outcome"`
	Served       []int         `json:"served,omitempty"`
	Cache        string        `json:"cache,omitempty"`
}

// MarshalJSON implements json.Marshaler.
func (t DecisionTrace) MarshalJSON() ([]byte, error) {
	w := traceJSON{
		ID:           t.ID,
		SampleID:     t.SampleID,
		CameraID:     t.CameraID,
		Class:        t.Class,
		Ladder:       t.Ladder,
		Level:        t.Level,
		Score:        t.Score,
		QueuedUS:     t.Queued.Microseconds(),
		ScoredUS:     t.Scored.Microseconds(),
		CommittedUS:  t.Committed.Microseconds(),
		ResolvedUS:   t.Resolved.Microseconds(),
		DeadlineUS:   t.Deadline.Microseconds(),
		LatencyUS:    t.Latency.Microseconds(),
		Subset:       t.Subset,
		Alternatives: t.Alternatives,
		QueueDepths:  t.QueueDepths,
		Blocked:      t.Blocked,
		Drift:        t.Drift,
		Retries:      t.Retries,
		Hedges:       t.Hedges,
		Timeouts:     t.Timeouts,
		Outcome:      t.Outcome,
		Served:       t.Served,
		Cache:        t.Cache,
	}
	if t.Planned != ensemble.Empty {
		w.Planned = t.Planned.Models()
	}
	if t.Early != ensemble.Empty {
		w.Early = t.Early.Models()
	}
	if t.BusyUntil != nil {
		w.BusyUntilUS = make([]int64, len(t.BusyUntil))
		for i, d := range t.BusyUntil {
			w.BusyUntilUS[i] = d.Microseconds()
		}
	}
	return json.Marshal(w)
}

// UnmarshalJSON implements json.Unmarshaler.
func (t *DecisionTrace) UnmarshalJSON(data []byte) error {
	var w traceJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	*t = DecisionTrace{
		ID:           w.ID,
		SampleID:     w.SampleID,
		CameraID:     w.CameraID,
		Class:        w.Class,
		Ladder:       w.Ladder,
		Level:        w.Level,
		Score:        w.Score,
		Queued:       time.Duration(w.QueuedUS) * time.Microsecond,
		Scored:       time.Duration(w.ScoredUS) * time.Microsecond,
		Committed:    time.Duration(w.CommittedUS) * time.Microsecond,
		Resolved:     time.Duration(w.ResolvedUS) * time.Microsecond,
		Deadline:     time.Duration(w.DeadlineUS) * time.Microsecond,
		Latency:      time.Duration(w.LatencyUS) * time.Microsecond,
		Subset:       w.Subset,
		Alternatives: w.Alternatives,
		QueueDepths:  w.QueueDepths,
		Blocked:      w.Blocked,
		Drift:        w.Drift,
		Retries:      w.Retries,
		Hedges:       w.Hedges,
		Timeouts:     w.Timeouts,
		Outcome:      w.Outcome,
		Served:       w.Served,
		Cache:        w.Cache,
	}
	for _, k := range w.Planned {
		t.Planned = t.Planned.With(k)
	}
	for _, k := range w.Early {
		t.Early = t.Early.With(k)
	}
	if w.BusyUntilUS != nil {
		t.BusyUntil = make([]time.Duration, len(w.BusyUntilUS))
		for i, us := range w.BusyUntilUS {
			t.BusyUntil[i] = time.Duration(us) * time.Microsecond
		}
	}
	return nil
}

// Record converts the trace to the serving-log Record format (the JSONL
// schema cmd/schemble-analyze consumes). Agreement is zero: the server
// does not score outputs against the full-ensemble reference online.
func (t DecisionTrace) Record() metrics.Record {
	rec := metrics.Record{
		QueryID:  int(t.ID),
		SampleID: t.SampleID,
		CameraID: t.CameraID,
		Class:    t.Class,
		Arrival:  t.Queued,
		Deadline: t.Deadline,
		Subset:   ensemble.Empty,
	}
	// Exhaustive over the taxonomy (enforced by the exhaustiveoutcome
	// analyzer): a new outcome must decide its Record flags here.
	switch t.Outcome {
	case OutcomeServed:
	case OutcomeDegraded:
		rec.Degraded = true
	case OutcomeMissed:
		rec.Missed = true
	case OutcomeRejected:
		rec.Missed = true
		rec.Rejected = true
	}
	if !rec.Missed {
		rec.Done = t.Resolved
	}
	for _, k := range t.Served {
		rec.Subset = rec.Subset.With(k)
	}
	return rec
}

// Ring is a bounded drop-oldest buffer of decision traces. Append takes a
// short mutex and never blocks beyond it, so it is safe to call from the
// serving runtime's event loop; once full, each append overwrites (drops)
// the oldest trace. Counters are exact regardless of drops.
type Ring struct {
	mu sync.Mutex
	//schemble:guardedby mu trace buffer
	buf []DecisionTrace
	//schemble:guardedby mu write cursor
	next int // write position once the buffer is full
	//schemble:guardedby mu append counter
	total uint64
	//schemble:guardedby mu drop counter
	dropped uint64
}

// NewRing builds a ring with the given capacity. Capacity <= 0 stores
// nothing but still counts appends (every append drops).
func NewRing(capacity int) *Ring {
	if capacity < 0 {
		capacity = 0
	}
	return &Ring{buf: make([]DecisionTrace, 0, capacity)}
}

// Append records one trace, dropping the oldest when full.
func (r *Ring) Append(t DecisionTrace) {
	r.mu.Lock()
	r.total++
	switch {
	case cap(r.buf) == 0:
		r.dropped++
	case len(r.buf) < cap(r.buf):
		r.buf = append(r.buf, t)
	default:
		r.buf[r.next] = t
		r.next = (r.next + 1) % cap(r.buf)
		r.dropped++
	}
	r.mu.Unlock()
}

// Last returns up to n of the most recent traces in chronological order
// (oldest of the returned slice first).
func (r *Ring) Last(n int) []DecisionTrace {
	if n <= 0 {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if n > len(r.buf) {
		n = len(r.buf)
	}
	out := make([]DecisionTrace, n)
	// r.next is the oldest element once the buffer wrapped; before that
	// the buffer is already chronological starting at 0.
	start := 0
	if len(r.buf) == cap(r.buf) {
		start = r.next
	}
	for i := 0; i < n; i++ {
		out[i] = r.buf[(start+len(r.buf)-n+i)%len(r.buf)]
	}
	return out
}

// Len returns how many traces are currently buffered.
func (r *Ring) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}

// Counters returns the exact number of traces ever appended and how many
// were dropped (overwritten or unbuffered).
func (r *Ring) Counters() (total, dropped uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total, r.dropped
}
