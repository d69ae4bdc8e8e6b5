package main

// The dp scenario writes BENCH_dp.json: micro-benchmarks (testing.Benchmark)
// of the DP re-solving two alternating instances and on the three shapes the
// live coordinator hands it (overload, the slack of a staged fleet, and that
// fleet under a buffer deeper than the window), of the Greedy baseline, and
// of the cold start of a deployment that has to fit (one predictor-shaped
// fit, one pipeline.Fit). Serving goodput under load is the repository
// benchmark's goodput_rps (see bench/README.md). The gate fails any micro
// whose ns/decision regresses more than maxRegress against the baseline.

import (
	"fmt"
	"os"
	"testing"
	"time"

	"schemble/internal/core"
	"schemble/internal/dataset"
	"schemble/internal/ensemble"
	"schemble/internal/model"
	"schemble/internal/nn"
	"schemble/internal/pipeline"
	"schemble/internal/rng"
)

const (
	schemaDP   = "schemble-bench/v1"
	maxRegress = 0.25 // fractional ns/decision regression vs the baseline
)

// dpReport is the BENCH_dp.json schema.
type dpReport struct {
	header
	// Micro benchmarks; one decision = one call (of Scheduler.Schedule for
	// dp/* and greedy/*, of Net.Train and pipeline.Fit for the cold-start
	// entries).
	Micro []microResult `json:"micro"`
}

type microResult struct {
	Name            string  `json:"name"`
	NsPerDecision   float64 `json:"ns_per_decision"`
	DecisionsPerSec float64 `json:"decisions_per_sec"`
	AllocsPerOp     int64   `json:"allocs_per_op"`
	BytesPerOp      int64   `json:"bytes_per_op"`
}

func runDP(uint64) (dpReport, error) {
	rep := dpReport{header: newHeader(schemaDP), Micro: runMicro()}
	for _, m := range rep.Micro {
		fmt.Fprintf(os.Stderr, "%-18s %12.1f ns/decision %14.0f decisions/sec %4d allocs/op %6d B/op\n",
			m.Name, m.NsPerDecision, m.DecisionsPerSec, m.AllocsPerOp, m.BytesPerOp)
	}
	return rep, nil
}

// gateDP compares micro results by name against the baseline.
func gateDP(rep dpReport, base *dpReport) []string {
	if base == nil {
		return nil
	}
	old := make(map[string]float64, len(base.Micro))
	for _, m := range base.Micro {
		old[m.Name] = m.NsPerDecision
	}
	var bad []string
	for _, m := range rep.Micro {
		prev, ok := old[m.Name]
		if !ok || prev <= 0 {
			continue
		}
		if m.NsPerDecision > prev*(1+maxRegress) {
			bad = append(bad, fmt.Sprintf("%s: %.0f ns/decision vs baseline %.0f (+%.0f%%, limit +%.0f%%)",
				m.Name, m.NsPerDecision, prev, 100*(m.NsPerDecision/prev-1), 100*maxRegress))
		}
	}
	return bad
}

// benchRewarder mirrors the diminishing-marginal-utility reward used by
// the repo's micro-benchmarks in bench_test.go.
type benchRewarder struct{}

func (r benchRewarder) Reward(score float64, s ensemble.Subset) float64 {
	if s == ensemble.Empty {
		return 0
	}
	u := 1.0
	sc := 0.2 + 0.6*score
	for i := 0; i < s.Size(); i++ {
		u *= sc
	}
	return 1 - u
}

// instance is the arguments of one Schedule call.
type instance struct {
	now      time.Duration
	queries  []core.QueryInfo
	capacity core.Capacity
	exec     []time.Duration
}

func (in instance) schedule(s core.Scheduler) {
	s.Schedule(in.now, in.queries, in.capacity, in.exec, benchRewarder{})
}

// benchInstance builds a scheduling instance with n buffered queries over
// m models (same generator as bench_test.go).
func benchInstance(n, m int, seed uint64) instance {
	src := rng.New(seed)
	queries := make([]core.QueryInfo, n)
	for i := range queries {
		queries[i] = core.QueryInfo{
			ID:       i,
			Arrival:  time.Duration(src.Intn(50)) * time.Millisecond,
			Deadline: time.Duration(100+src.Intn(200)) * time.Millisecond,
			Score:    src.Float64(),
		}
	}
	avail := make([]time.Duration, m)
	exec := make([]time.Duration, m)
	for k := range exec {
		avail[k] = time.Duration(src.Intn(40)) * time.Millisecond
		exec[k] = time.Duration(20+src.Intn(70)) * time.Millisecond
	}
	return instance{0, queries, core.SingleReplica(avail), exec}
}

// liveInstance builds the instance shape the serve coordinator hands the
// planner under overload (BENCHMARK.json's burst workload): a window's
// worth of buffered queries whose IDs are buffer positions, each still
// able to meet its deadline on its own, deadlines within the next half
// second (the window keeps the most urgent half of a deep buffer), and a
// three-model text-matching fleet where the fast model has just gone
// idle while the slow two are mid-task. Capacity admits far fewer queries
// than the window holds, so much of the table can never reach the top
// level — the regime the level bounds exist for.
func liveInstance(seed uint64) instance {
	const n = 16
	src := rng.New(seed)
	now := time.Duration(2000+src.Intn(500)) * time.Millisecond
	queries := make([]core.QueryInfo, n)
	for i := range queries {
		queries[i] = core.QueryInfo{
			ID:       i,
			Arrival:  now - time.Duration(src.Intn(60))*time.Millisecond,
			Deadline: now + time.Duration(25+src.Intn(425))*time.Millisecond,
			Score:    src.Float64(),
		}
	}
	ms := time.Millisecond
	avail := []time.Duration{now - 3*ms, now + time.Duration(10+src.Intn(70))*ms, now + time.Duration(10+src.Intn(80))*ms}
	exec := []time.Duration{22 * ms, 88 * ms, 99 * ms}
	return instance{now, queries, core.SingleReplica(avail), exec}
}

// slackInstance builds the shape behind the live path's slowest calls on
// burst: n buffered queries with deadlines uniform in 150 ms-1 s from
// arrival against a fleet staged one task deep (each model busy with a
// running task and the one behind it), so nearly every query can still be
// placed and the plan's top level sits near the upper bound the window
// can add. At n = 16 the buffer is one window; deeper, the window is
// truncated and planned over single models.
func slackInstance(n int, seed uint64) instance {
	ms := time.Millisecond
	src := rng.New(seed)
	now := time.Duration(2000+src.Intn(500)) * ms
	queries := make([]core.QueryInfo, n)
	for i := range queries {
		arrival := now - time.Duration(src.Intn(60))*ms
		queries[i] = core.QueryInfo{
			ID:       i,
			Arrival:  arrival,
			Deadline: arrival + time.Duration(150+src.Intn(851))*ms,
			Score:    src.Float64(),
		}
	}
	exec := []time.Duration{22 * ms, 88 * ms, 99 * ms}
	avail := make([]time.Duration, len(exec))
	for k, e := range exec {
		avail[k] = now + e + time.Duration(src.Intn(int(e/ms)))*ms
	}
	return instance{now, queries, core.SingleReplica(avail), exec}
}

// measure runs f(i) for the i-th op under testing.Benchmark and converts
// the result.
func measure(name string, f func(i int)) microResult {
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f(i)
		}
	})
	ns := float64(r.NsPerOp())
	per := 0.0
	if ns > 0 {
		per = 1e9 / ns
	}
	return microResult{
		Name:            name,
		NsPerDecision:   ns,
		DecisionsPerSec: per,
		AllocsPerOp:     r.AllocsPerOp(),
		BytesPerOp:      r.AllocedBytesPerOp(),
	}
}

// predictorFit is one fit of the Section V-C predictor as pipeline.Fit
// runs it twice per cold start: a 12-48-24-(2+1) two-headed net, 2,000
// examples (the N 4000 deployment's training split), 150 epochs of Adam at
// batch 32. The inputs are synthetic; the work per example is not
// data-dependent beyond which ReLU units are live.
func predictorFit() func() {
	src := rng.New(46)
	var ds nn.Dataset
	for i := 0; i < 2000; i++ {
		x := make([]float64, 12)
		for j := range x {
			x[j] = src.Normal(0, 1)
		}
		y := []float64{0, 0}
		y[src.Intn(2)] = 1
		ds.X, ds.Y, ds.Dis = append(ds.X, x), append(ds.Y, y), append(ds.Dis, src.Float64())
	}
	return func() {
		net := nn.NewNet(nn.Config{
			Spec:    nn.Spec{In: 12, Hidden: []int{48, 24}},
			TaskOut: 2, TaskAct: nn.Softmax, WithHead2: true,
		}, rng.New(47))
		net.Train(nn.TrainConfig{
			Loss: nn.CE, Epochs: 150, BatchSize: 32, LR: 0.01,
			Optimizer: nn.Adam, Lambda: 0.2, Seed: 47,
		}, ds)
	}
}

func runMicro() []microResult {
	// Each DP instance re-solves two instances in turn, so neither call can
	// answer from the tables the previous one left: two 8-query instances
	// solved from scratch (on a warm arena), then the live path's calls — a
	// full window under overload with one idle model, a full window of
	// slack on a staged fleet, and the same fleet under a burst-deep buffer
	// of 40.
	pairs := []struct {
		name string
		a, b instance
	}{
		{"dp/resolve", benchInstance(8, 3, 42), benchInstance(8, 3, 43)},
		{"dp/live-overload", liveInstance(44), liveInstance(45)},
		{"dp/live-slack", slackInstance(16, 46), slackInstance(16, 47)},
		{"dp/live-deep", slackInstance(40, 48), slackInstance(40, 49)},
	}
	var out []microResult
	for _, p := range pairs {
		dp := &core.DP{Delta: 0.01}
		// Warm the arena so the measured window is the steady state.
		for i := 0; i < 4; i++ {
			p.a.schedule(dp)
			p.b.schedule(dp)
		}
		out = append(out, measure(p.name, func(i int) {
			if i%2 == 0 {
				p.a.schedule(dp)
			} else {
				p.b.schedule(dp)
			}
		}))
	}
	greedy, greedyIn := &core.Greedy{Order: core.EDF}, pairs[0].a
	for i := 0; i < 4; i++ {
		greedyIn.schedule(greedy)
	}
	fit := predictorFit()
	buildCfg := pipeline.Config{
		Dataset: dataset.TextMatching(dataset.Config{N: 4000, Seed: 7}),
		Models:  model.TextMatchingModels(7),
		Seed:    7,
	}
	return append(out,
		measure("greedy/edf", func(int) { greedyIn.schedule(greedy) }),
		// Cold start. One fit on one processor, then the whole fit of the
		// server's default deployment (two such fits side by side plus
		// profiling). It calls Fit, since Build restores this deployment;
		// the micro keeps its name so BENCH_dp.json stays comparable.
		measure("nn/train-predictor", func(int) { fit() }),
		measure("pipeline/build", func(int) { pipeline.Fit(buildCfg) }),
	)
}
