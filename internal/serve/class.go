package serve

import (
	"sync/atomic"
	"time"

	"schemble/internal/obsv"
	"schemble/internal/qos"
)

// Class is one request class (a tenant or priority tier); see qos.Class.
// Configure classes via Config.Classes and select one per request with
// SubmitClass (or the X-Schemble-Class header over HTTP).
type Class = qos.Class

// AdmissionConfig tunes the overload controller; the zero value means
// defaults. See qos.Tuning.
type AdmissionConfig = qos.Tuning

// classCounters are one class's outcome counters, written by Submit and
// resolve and read by Stats.
type classCounters struct {
	submitted atomic.Uint64
	outcome   [obsv.NumOutcomes]atomic.Uint64
	// shed counts rejections decided by the admission controller (a
	// subset of rejected; the rest are saturation/drain rejections).
	shed atomic.Uint64
	// cached counts requests the result cache answered (a subset of
	// served: a hit never reaches admission).
	cached atomic.Uint64
}

// ClassStats is one class's slice of the Stats snapshot.
type ClassStats struct {
	Name     string
	Priority int
	Weight   float64
	// Level is the class's current degradation-ladder service level:
	// "full", "capped", "greedy" or "shed".
	Level string
	// TimeAtLevel[l] is the virtual time the class has spent at qos.Level
	// l since the runtime started.
	TimeAtLevel [qos.LevelShed + 1]time.Duration
	// Outcome counters (Submitted = Served+Degraded+Missed+Rejected once
	// everything in flight resolves). Shed counts admission-controller
	// rejections, a subset of Rejected; Cached counts result-cache hits, a
	// subset of Served that admission never saw.
	Submitted uint64
	Served    uint64
	Degraded  uint64
	Missed    uint64
	Rejected  uint64
	Shed      uint64
	Cached    uint64
	// SLOAttainment is the fraction of completed outcomes that met the
	// deadline: (Served+Degraded) / (Served+Degraded+Missed). Rejections
	// are excluded — shed load is reported as Shed/Rejected, not as SLO
	// failure. 1 when nothing has completed.
	SLOAttainment float64
}

// classStatsFrom assembles the per-class Stats slice from the admission
// controller's snapshot and the server's outcome counters.
func (s *Server) classStatsFrom(snaps []qos.ClassSnapshot) []ClassStats {
	out := make([]ClassStats, len(snaps))
	for i, snap := range snaps {
		cc := &s.classStats[i]
		cs := ClassStats{
			Name:          snap.Name,
			Priority:      snap.Priority,
			Weight:        snap.Weight,
			Level:         snap.Level.String(),
			TimeAtLevel:   snap.TimeAtLevel,
			Submitted:     cc.submitted.Load(),
			Served:        cc.outcome[obsv.Served].Load(),
			Degraded:      cc.outcome[obsv.Degraded].Load(),
			Missed:        cc.outcome[obsv.Missed].Load(),
			Rejected:      cc.outcome[obsv.Rejected].Load(),
			Shed:          cc.shed.Load(),
			Cached:        cc.cached.Load(),
			SLOAttainment: 1,
		}
		if done := cs.Served + cs.Degraded + cs.Missed; done > 0 {
			cs.SLOAttainment = float64(cs.Served+cs.Degraded) / float64(done)
		}
		out[i] = cs
	}
	return out
}

// Classed reports whether the runtime was configured with request
// classes (so requests without an explicit deadline can inherit a class
// default).
func (s *Server) Classed() bool { return s.classStats != nil }

// Load returns the overload controller's smoothed pressure estimate
// (~0 idle, 1 at the target backlog, unbounded above).
func (s *Server) Load() float64 { return s.eng.QoS.Load() }

// RetryAfterSeconds derives the Retry-After hint for 503 responses from
// the load estimator: roughly how many wall-clock seconds until the
// smoothed backlog drains, never less than 1. Monotone in the observed
// load, so clients back off harder the deeper the overload.
func (s *Server) RetryAfterSeconds() int {
	wall := time.Duration(float64(s.eng.QoS.RetryAfter()) * s.scale)
	secs := int((wall + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}
