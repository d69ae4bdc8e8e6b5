// Command schemble-bench measures the scheduler hot path and emits the
// machine-readable BENCH_dp.json trajectory file tracked by the ROADMAP.
//
// It runs two kinds of measurements:
//
//   - Micro-benchmarks of the scheduling kernel itself (via
//     testing.Benchmark): the DP re-solving two alternating instances,
//     the DP on the three shapes the live coordinator hands it (overload,
//     the all-feasible slack of a staged fleet, and that fleet under a
//     buffer deeper than the window), and the Greedy baseline; and of the
//     cold start every server, soak and experiment pays: one
//     predictor-shaped training run and one whole pipeline.Build.
//   - A high-arrival-rate soak of the real internal/serve runtime over a
//     fitted text-matching pipeline under a compressed TimeScale,
//     reporting outcome counts (a drain-and-accounting smoke; wall-clock
//     goodput is the repo benchmark's goodput_rps, see bench/README.md).
//
// Usage:
//
//	schemble-bench [-quick] [-out BENCH_dp.json]
//	               [-baseline BENCH_dp.json] [-max-regress 0.25]
//
// -quick shrinks the soak and pipeline fit for CI. When -baseline names
// an existing result file, the run fails (exit 1) if any micro
// benchmark's ns/decision regresses more than -max-regress against it;
// the baseline is read before -out is written, so both may name the same
// file. The output deliberately contains no wall-clock timestamps: two
// runs of the same tree on the same machine should produce comparable
// files.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"schemble"
	"schemble/internal/core"
	"schemble/internal/dataset"
	"schemble/internal/ensemble"
	"schemble/internal/model"
	"schemble/internal/nn"
	"schemble/internal/pipeline"
	"schemble/internal/rng"
)

// report is the BENCH_*.json schema ("schemble-bench/v1").
type report struct {
	Schema string `json:"schema"`
	Go     string `json:"go"`
	Quick  bool   `json:"quick"`
	// Micro benchmarks; one decision = one call (of Scheduler.Schedule for
	// dp/* and greedy/*, of Net.Train and pipeline.Build for the cold-start
	// entries).
	Micro []microResult `json:"micro"`
	Soak  *soakResult   `json:"soak,omitempty"`
}

type microResult struct {
	Name            string  `json:"name"`
	NsPerDecision   float64 `json:"ns_per_decision"`
	DecisionsPerSec float64 `json:"decisions_per_sec"`
	AllocsPerOp     int64   `json:"allocs_per_op"`
	BytesPerOp      int64   `json:"bytes_per_op"`
}

type soakResult struct {
	Queries    int     `json:"queries"`
	RatePerSec float64 `json:"rate_per_sec"`
	TimeScale  float64 `json:"time_scale"`
	DeadlineMs float64 `json:"deadline_ms"`
	Served     uint64  `json:"served"`
	Degraded   uint64  `json:"degraded"`
	Missed     uint64  `json:"missed"`
	Rejected   uint64  `json:"rejected"`
}

// benchRewarder mirrors the diminishing-marginal-utility reward used by
// the repo's micro-benchmarks in bench_test.go.
type benchRewarder struct{ m int }

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

// benchInstance builds a scheduling instance with n buffered queries over
// m models (same generator as bench_test.go).
func benchInstance(n, m int, seed uint64) ([]core.QueryInfo, core.Capacity, []time.Duration) {
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
	return queries, core.SingleReplica(avail), exec
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
func liveInstance(seed uint64) (time.Duration, []core.QueryInfo, core.Capacity, []time.Duration) {
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
	return now, queries, core.SingleReplica(avail), exec
}

// slackInstance builds the shape behind the live path's slowest calls on
// burst: n buffered queries with deadlines uniform in 150 ms-1 s from
// arrival against a fleet staged one task deep (each model busy with a
// running task and the one behind it), so nearly every query can still be
// placed and the plan's top level sits near the upper bound the window
// can add. At n = 16 the buffer is one window; deeper, the window is
// truncated and planned over single models.
func slackInstance(n int, seed uint64) (time.Duration, []core.QueryInfo, core.Capacity, []time.Duration) {
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
	return now, queries, core.SingleReplica(avail), exec
}

// measure runs f under testing.Benchmark and converts the result.
func measure(name string, f func(b *testing.B)) microResult {
	r := testing.Benchmark(f)
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

// alternating measures two calls in turn, so neither can answer from
// the tables the previous call left.
func alternating(name string, even, odd func()) microResult {
	return measure(name, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if i%2 == 0 {
				even()
			} else {
				odd()
			}
		}
	})
}

// predictorFit is one fit of the Section V-C predictor as pipeline.Build
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
	const n, m = 8, 3
	qA, capA, execA := benchInstance(n, m, 42)
	qB, capB, execB := benchInstance(n, m, 43)
	rw := benchRewarder{m}

	nowL1, qL1, capL1, execL1 := liveInstance(44)
	nowL2, qL2, capL2, execL2 := liveInstance(45)
	nowS1, qS1, capS1, execS1 := slackInstance(16, 46)
	nowS2, qS2, capS2, execS2 := slackInstance(16, 47)
	nowD1, qD1, capD1, execD1 := slackInstance(40, 48)
	nowD2, qD2, capD2, execD2 := slackInstance(40, 49)

	resolveDP := &core.DP{Delta: 0.01}
	liveDP := &core.DP{Delta: 0.01}
	slackDP := &core.DP{Delta: 0.01}
	deepDP := &core.DP{Delta: 0.01}
	greedy := &core.Greedy{Order: core.EDF}
	fit := predictorFit()
	buildCfg := pipeline.Config{
		Dataset: dataset.TextMatching(dataset.Config{N: 4000, Seed: 7}),
		Models:  model.TextMatchingModels(7),
		Seed:    7,
	}
	// Warm the arenas so the measured window is the steady state.
	for i := 0; i < 4; i++ {
		resolveDP.Schedule(0, qA, capA, execA, rw)
		resolveDP.Schedule(0, qB, capB, execB, rw)
		greedy.Schedule(0, qA, capA, execA, rw)
		liveDP.Schedule(nowL1, qL1, capL1, execL1, rw)
		liveDP.Schedule(nowL2, qL2, capL2, execL2, rw)
		slackDP.Schedule(nowS1, qS1, capS1, execS1, rw)
		slackDP.Schedule(nowS2, qS2, capS2, execS2, rw)
		deepDP.Schedule(nowD1, qD1, capD1, execD1, rw)
		deepDP.Schedule(nowD2, qD2, capD2, execD2, rw)
	}

	return []microResult{
		// Two instances in turn: every call solves from scratch (on a
		// warm arena).
		alternating("dp/resolve",
			func() { resolveDP.Schedule(0, qA, capA, execA, rw) },
			func() { resolveDP.Schedule(0, qB, capB, execB, rw) }),
		// The live path's calls: a full window under overload with one
		// idle model, a full window of slack on a staged fleet, and the
		// same fleet under a burst-deep buffer of 40.
		alternating("dp/live-overload",
			func() { liveDP.Schedule(nowL1, qL1, capL1, execL1, rw) },
			func() { liveDP.Schedule(nowL2, qL2, capL2, execL2, rw) }),
		alternating("dp/live-slack",
			func() { slackDP.Schedule(nowS1, qS1, capS1, execS1, rw) },
			func() { slackDP.Schedule(nowS2, qS2, capS2, execS2, rw) }),
		alternating("dp/live-deep",
			func() { deepDP.Schedule(nowD1, qD1, capD1, execD1, rw) },
			func() { deepDP.Schedule(nowD2, qD2, capD2, execD2, rw) }),
		measure("greedy/edf", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				greedy.Schedule(0, qA, capA, execA, rw)
			}
		}),
		// Cold start. One fit on one processor, then the server's whole
		// Build (two such fits side by side plus profiling).
		measure("nn/train-predictor", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fit()
			}
		}),
		measure("pipeline/build", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pipeline.Build(buildCfg)
			}
		}),
	}
}

func runSoak(quick bool) (*soakResult, error) {
	nQueries, nData, epochs := 3000, 2000, 60
	if quick {
		nQueries, nData, epochs = 400, 600, 20
	}
	// 80/s overruns the fastest model's single-replica capacity (20ms =>
	// 50/s), so the scheduler must triage by difficulty instead of
	// serving everything — the regime the paper targets.
	const (
		rate     = 80.0 // virtual arrivals per second
		scale    = 0.05 // 20x time compression
		deadline = 150 * time.Millisecond
	)
	ds := dataset.TextMatching(dataset.Config{N: nData, Seed: 7})
	fw := schemble.New(schemble.Config{
		Dataset:         ds,
		Models:          model.TextMatchingModels(7),
		PredictorEpochs: epochs,
		Seed:            7,
	})
	tr := fw.PoissonTrace(rate, nQueries, deadline, 1)
	pool := fw.ServingPool()
	srv := fw.NewServer(schemble.ServerOptions{TimeScale: scale})
	srv.Start(context.Background())
	start := time.Now()
	chans := make([]<-chan schemble.ServeResult, 0, len(tr.Arrivals))
	for _, a := range tr.Arrivals {
		if d := time.Duration(float64(a.At)*scale) - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		chans = append(chans, srv.Submit(pool[a.SampleIdx], a.Deadline-a.At))
	}
	for _, ch := range chans {
		<-ch
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		return nil, fmt.Errorf("soak drain: %w", err)
	}
	st := srv.Stats()
	return &soakResult{
		Queries:    nQueries,
		RatePerSec: rate,
		TimeScale:  scale,
		DeadlineMs: float64(deadline) / float64(time.Millisecond),
		Served:     st.Served,
		Degraded:   st.Degraded,
		Missed:     st.Missed,
		Rejected:   st.Rejected,
	}, nil
}

// checkRegression compares micro results by name against a baseline file
// and returns the violations.
func checkRegression(baseline report, micro []microResult, maxRegress float64) []string {
	old := make(map[string]float64, len(baseline.Micro))
	for _, m := range baseline.Micro {
		old[m.Name] = m.NsPerDecision
	}
	var bad []string
	for _, m := range micro {
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

func main() {
	quick := flag.Bool("quick", false, "shrink the soak and pipeline fit (CI mode)")
	out := flag.String("out", "BENCH_dp.json", "output file")
	baselinePath := flag.String("baseline", "", "previous BENCH_*.json to gate ns/decision regressions against")
	maxRegress := flag.Float64("max-regress", 0.25, "allowed fractional ns/decision regression vs -baseline")
	noSoak := flag.Bool("no-soak", false, "skip the serve-runtime soak (micro benchmarks only)")
	flag.Parse()

	// Read the baseline before writing anything: -baseline and -out may
	// name the same file.
	var baseline *report
	if *baselinePath != "" {
		raw, err := os.ReadFile(*baselinePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "schemble-bench: read baseline: %v\n", err)
			os.Exit(1)
		}
		baseline = &report{}
		if err := json.Unmarshal(raw, baseline); err != nil {
			fmt.Fprintf(os.Stderr, "schemble-bench: parse baseline: %v\n", err)
			os.Exit(1)
		}
	}

	rep := report{
		Schema: "schemble-bench/v1",
		Go:     runtime.Version(),
		Quick:  *quick,
		Micro:  runMicro(),
	}
	for _, m := range rep.Micro {
		fmt.Printf("%-18s %12.1f ns/decision %14.0f decisions/sec %4d allocs/op %6d B/op\n",
			m.Name, m.NsPerDecision, m.DecisionsPerSec, m.AllocsPerOp, m.BytesPerOp)
	}

	if !*noSoak {
		soak, err := runSoak(*quick)
		if err != nil {
			fmt.Fprintf(os.Stderr, "schemble-bench: %v\n", err)
			os.Exit(1)
		}
		rep.Soak = soak
		fmt.Printf("soak: %d queries @ %.0f/s virtual -> served %d, degraded %d, missed %d, rejected %d\n",
			soak.Queries, soak.RatePerSec, soak.Served, soak.Degraded, soak.Missed, soak.Rejected)
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "schemble-bench: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, append(enc, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "schemble-bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", *out)

	if baseline != nil {
		if bad := checkRegression(*baseline, rep.Micro, *maxRegress); len(bad) > 0 {
			fmt.Fprintln(os.Stderr, "schemble-bench: ns/decision regression vs baseline:")
			for _, b := range bad {
				fmt.Fprintln(os.Stderr, "  "+b)
			}
			os.Exit(1)
		}
		fmt.Printf("no ns/decision regression vs %s (limit +%.0f%%)\n", *baselinePath, 100**maxRegress)
	}
}
