package adapt

import "time"

// Drift event kinds. A typed event is emitted when a detector's state
// machine transitions — never per sample — so a stationary workload
// produces zero events (the no-flap property the test suite pins).
const (
	// DriftLatency marks a per-model latency shift: the windowed mean of
	// observed task latencies left (or re-entered) the tolerance band
	// around the frozen profiling mean.
	DriftLatency = "latency"
	// DriftScore marks a difficulty-mix shift: the windowed mean of
	// difficulty scores left (or re-entered) the band around the
	// baseline score distribution.
	DriftScore = "score"
)

// DriftEvent is one detector transition, recorded in virtual time so a
// replay produces the same event stream.
type DriftEvent struct {
	// At is the virtual time of the window close that triggered the
	// transition.
	At time.Duration `json:"at"`
	// Kind is DriftLatency or DriftScore.
	Kind string `json:"kind"`
	// Model is the model index for latency events, -1 for score events.
	Model int `json:"model"`
	// Enter is true when drift was detected, false when the signal
	// returned to the tolerance band.
	Enter bool `json:"enter"`
	// Value is the windowed statistic that crossed: the observed/profiled
	// mean-latency ratio for latency events, the windowed mean score
	// for score events.
	Value float64 `json:"value"`
}

// window accumulates one detector window in virtual time. Windows are
// anchored at the first observation after the previous close rather
// than on a global grid: the detector then never closes an empty
// window, and window boundaries are a deterministic function of the
// observation stream alone, so a replay closes the same windows.
type window struct {
	started bool
	start   time.Duration
	sum     float64
	n       int
}

// driftState is one detector's hysteretic state machine. A transition
// requires patience consecutive out-of-band (or back-in-band) windows:
// one noisy window flips nothing, so the detector cannot flap on
// boundary-straddling workloads. run counts consecutive windows that
// disagree with the current state.
type driftState struct {
	active bool
	run    int
}

// observe folds one closed window verdict into the state machine and
// reports whether the state flipped.
func (d *driftState) observe(out bool, patience int) bool {
	if out == d.active {
		d.run = 0
		return false
	}
	d.run++
	if d.run < patience {
		return false
	}
	d.active = out
	d.run = 0
	return true
}

// detector holds both drift signals and the bounded event ring. It is
// embedded in Engine and shares its mutex.
type detector struct {
	// latWin/latState track per-model observed-vs-profiled latency.
	latWin   []window
	latState []driftState
	// scoreWin/scoreState track the difficulty-score distribution.
	scoreWin   window
	scoreState driftState
	// baseline is the reference mean score, self-calibrated from the
	// first judged window.
	baseline    float64
	baselineSet bool

	// events is a preallocated drop-oldest ring (head is the next write
	// slot, filled the live count) so event emission never allocates on
	// the observation path.
	events [eventBuffer]DriftEvent
	head   int
	filled int
	// latencyEvents/scoreEvents are lifetime transition counters by
	// kind, exported through the snapshot and /v1/metrics.
	latencyEvents uint64
	scoreEvents   uint64
}

// push records one transition event into the ring.
func (d *detector) push(ev DriftEvent) {
	if ev.Kind == DriftLatency {
		d.latencyEvents++
	} else {
		d.scoreEvents++
	}
	d.events[d.head] = ev
	d.head = (d.head + 1) % len(d.events)
	if d.filled < len(d.events) {
		d.filled++
	}
}

// recent appends the ring's events, oldest first, to a fresh slice.
func (d *detector) recent() []DriftEvent {
	if d.filled == 0 {
		return nil
	}
	out := make([]DriftEvent, 0, d.filled)
	start := (d.head - d.filled + len(d.events)) % len(d.events)
	for i := 0; i < d.filled; i++ {
		out = append(out, d.events[(start+i)%len(d.events)])
	}
	return out
}
