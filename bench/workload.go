package main

import (
	"math"
	"math/rand"
	"time"
)

// workload is one traffic mix. Exactly one of closed/open applies: the
// HTTP workload is a closed loop over the built binary, the others are
// in-process open loops over generated arrival traces.
type workload struct {
	name, why string
	http      bool
	features  bool
	// arrivals generates the process over a virtual horizon whose measured
	// part starts at from; expect is the process's mean arrival count over
	// that part, which the load matching below holds every seed to.
	arrivals func(d *deployment, seed uint64, from, horizon time.Duration) []arrival
	expect   func(from, horizon time.Duration) float64
	// httpDeadline is the virtual deadline of every closed-loop request and
	// httpConns the number of callers, each on its own keep-alive
	// connection.
	httpDeadline time.Duration
	httpConns    int
}

const (
	// runScale is every workload's TimeScale: virtual 100 ms = wall 10 ms,
	// so the models cost 2-9 ms of wall time.
	runScale = 0.1
	// saturationScale is the TimeScale of the traced HTTP run's saturation
	// probe: models cost 2-9 us, so the closed loop's rate is the runtime's
	// own cost per request.
	saturationScale = 0.0001

	steadyRate = 8.0 // virtual req/s; the full ensemble's bottleneck is ~11.1

	burstLow, burstHigh         = 12.5, 100.0
	burstHoldLow, burstHoldHigh = 2 * time.Second, time.Second

	flashBackground, flashPeak = 10.0, 5.0
)

var workloads = []*workload{
	{
		name: "http-closed", http: true,
		why:          "one caller on a keep-alive connection to the built binary: each request meets an idle runtime, so latency is model time plus what HTTP and the runtime add; the real process's set-up and memory",
		httpDeadline: 150 * time.Millisecond,
		httpConns:    1,
	},
	{
		name: "steady",
		why:  "open-loop Poisson at 0.72x the bottleneck with 150 ms deadlines: the paper's normal regime, models do the work, so planner changes must show no change and per-request overhead is visible",
		arrivals: func(d *deployment, seed uint64, _, h time.Duration) []arrival {
			return d.poissonArrivals(seed, steadyRate, 150*time.Millisecond, h)
		},
		expect: constantRate(steadyRate),
	},
	{
		name: "burst",
		why:  "open-loop MMPP with peaks 9x the bottleneck and deadlines uniform in 150 ms-1 s: the buffer runs deep, every event re-plans it and the single coordinator is the contended resource",
		arrivals: func(d *deployment, seed uint64, _, h time.Duration) []arrival {
			return d.mmppArrivals(seed, []float64{burstLow, burstHigh},
				[]time.Duration{burstHoldLow, burstHoldHigh},
				150*time.Millisecond, time.Second, h)
		},
		expect: constantRate((burstLow*burstHoldLow.Seconds() + burstHigh*burstHoldHigh.Seconds()) /
			(burstHoldLow + burstHoldHigh).Seconds()),
	},
	{
		name: "features-flash", features: true,
		why: "open-loop flash crowd held at its 5x peak with classes, admission, result cache, adaptation and tracing on: the opt-in paths of the same code, so a zero-config gain that costs them shows",
		arrivals: func(d *deployment, seed uint64, from, h time.Duration) []arrival {
			return d.flashArrivals(seed, flashBackground, flashPeak, from, h)
		},
		// The crowd reaches its peak inside the warm-up and holds it, so
		// the measured part is the plateau.
		expect: constantRate(flashBackground * flashPeak),
	},
}

func constantRate(perSec float64) func(from, horizon time.Duration) float64 {
	return func(from, h time.Duration) float64 { return perSec * (h - from).Seconds() }
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// loadTolerance is how far a generated trace's arrival count may sit from
// the process mean. Without it the offered load of a 14 s window swings by
// several percent from seed to seed (far more for the MMPP, whose time in
// the burst state is a sum of ~30 exponentials) and every share-of-sent
// metric inherits that swing.
const loadTolerance = 0.01

// maxDraws bounds the search for a load-matched trace.
const maxDraws = 400

// subSeed derives the seed of the n-th candidate trace.
func subSeed(seed uint64, n int) uint64 {
	x := seed + uint64(n)*0x9e3779b97f4a7c15
	x ^= x >> 31
	return x * 0xbf58476d1ce4e5b9
}

// matchedArrivals generates the workload's arrivals over [0, span) of wall
// time. The seed picks the trace: candidates are drawn from sub-seeds in
// order and the first whose count over the measured part [from, span) is
// within loadTolerance of the process mean wins (the closest, if none is).
// So a seed decides which requests arrive when, but every seed offers the
// same load.
func (w *workload) matchedArrivals(d *deployment, seed uint64, from, span time.Duration) []arrival {
	horizon := time.Duration(float64(span) / runScale)
	fromV := time.Duration(float64(from) / runScale)
	want := w.expect(fromV, horizon)
	var best []arrival
	bestGap := math.Inf(1)
	for n := 0; n < maxDraws && bestGap > loadTolerance; n++ {
		all := w.arrivals(d, subSeed(seed, n), fromV, horizon)
		measured := 0
		for _, a := range all {
			if a.at >= from {
				measured++
			}
		}
		if gap := math.Abs(float64(measured)-want) / want; gap < bestGap {
			best, bestGap = all, gap
		}
	}
	return best
}

// shuffledOrder is the closed loop's sample order: the whole pool in a
// seeded shuffle, repeated.
func shuffledOrder(seed uint64, n int) []int {
	return rand.New(rand.NewSource(int64(seed))).Perm(n)
}
