package core

// Micro-benchmarks of the planners. The five named after their shape
// (BenchmarkDPResolve, BenchmarkDPLive*, BenchmarkGreedyEDF) are the ones
// scripts/micro_pairs.sh gates a change on against its parent: each DP
// one re-solves two instances in turn, so neither call can answer from the
// tables the previous one left, on an arena warmed first so the timed
// window is the steady state (0 allocs/op). The BenchmarkDPSchedule*
// sweep repeats one instance across sizes and Delta settings (the
// verbatim-repeat call the planner's reuse answers).

import (
	"testing"
	"time"

	"schemble/internal/ensemble"
	"schemble/internal/rng"
)

// benchRewarder is a cheap diminishing-marginal-utility reward function.
type benchRewarder struct{}

func (benchRewarder) Reward(score float64, s ensemble.Subset) float64 {
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

func (in instance) schedule(s Scheduler) Plan {
	return s.Schedule(in.now, in.queries, in.cap, in.exec, benchRewarder{})
}

// benchInstance builds a scheduling instance with n buffered queries over
// m single-replica models.
func benchInstance(n, m int, seed uint64) instance {
	src := rng.New(seed)
	queries := make([]QueryInfo, n)
	for i := range queries {
		queries[i] = QueryInfo{
			ID:       i,
			Arrival:  time.Duration(src.Intn(50)) * ms,
			Deadline: time.Duration(100+src.Intn(200)) * ms,
			Score:    src.Float64(),
		}
	}
	avail := make([]time.Duration, m)
	exec := make([]time.Duration, m)
	for k := range exec {
		avail[k] = time.Duration(src.Intn(40)) * ms
		exec[k] = time.Duration(20+src.Intn(70)) * ms
	}
	return instance{queries: queries, cap: SingleReplica(avail), exec: exec, m: m}
}

// benchLiveInstance builds the instance shape the serve coordinator hands
// the planner under overload (BENCHMARK.json's burst workload): a window's
// worth of buffered queries whose IDs are buffer positions, each still
// able to meet its deadline on its own, deadlines within the next half
// second (the window keeps the most urgent half of a deep buffer), and a
// three-model text-matching fleet where the fast model has just gone
// idle while the slow two are mid-task. Capacity admits far fewer queries
// than the window holds, so much of the table can never reach the top
// level — the regime the level bounds exist for.
func benchLiveInstance(seed uint64) instance {
	const n = 16
	src := rng.New(seed)
	now := time.Duration(2000+src.Intn(500)) * ms
	queries := make([]QueryInfo, n)
	for i := range queries {
		queries[i] = QueryInfo{
			ID:       i,
			Arrival:  now - time.Duration(src.Intn(60))*ms,
			Deadline: now + time.Duration(25+src.Intn(425))*ms,
			Score:    src.Float64(),
		}
	}
	avail := []time.Duration{now - 3*ms, now + time.Duration(10+src.Intn(70))*ms, now + time.Duration(10+src.Intn(80))*ms}
	exec := []time.Duration{22 * ms, 88 * ms, 99 * ms}
	return instance{now: now, queries: queries, cap: SingleReplica(avail), exec: exec, m: 3}
}

// benchSlackInstance builds the shape behind the live path's slowest calls
// on burst: n buffered queries with deadlines uniform in 150 ms-1 s from
// arrival against a fleet staged one task deep (each model busy with a
// running task and the one behind it), so nearly every query can still be
// placed and the plan's top level sits near the upper bound the window
// can add. At n = 16 the buffer is one window; deeper, the window is
// truncated and planned over single models.
func benchSlackInstance(n int, seed uint64) instance {
	src := rng.New(seed)
	now := time.Duration(2000+src.Intn(500)) * ms
	queries := make([]QueryInfo, n)
	for i := range queries {
		arrival := now - time.Duration(src.Intn(60))*ms
		queries[i] = QueryInfo{
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
	return instance{now: now, queries: queries, cap: SingleReplica(avail), exec: exec, m: 3}
}

// benchResolve times a DP(0.01) alternating between a and c after four
// warm-up calls on each.
func benchResolve(b *testing.B, a, c instance) {
	d := &DP{Delta: 0.01}
	for i := 0; i < 4; i++ {
		a.schedule(d)
		c.schedule(d)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			a.schedule(d)
		} else {
			c.schedule(d)
		}
	}
}

// BenchmarkDPResolve re-solves two 8-query instances from scratch.
func BenchmarkDPResolve(b *testing.B) {
	benchResolve(b, benchInstance(8, 3, 42), benchInstance(8, 3, 43))
}

// BenchmarkDPLiveOverload re-solves a full window under overload with one
// idle model.
func BenchmarkDPLiveOverload(b *testing.B) {
	benchResolve(b, benchLiveInstance(44), benchLiveInstance(45))
}

// BenchmarkDPLiveSlack re-solves a full window of slack on a staged fleet.
func BenchmarkDPLiveSlack(b *testing.B) {
	benchResolve(b, benchSlackInstance(16, 46), benchSlackInstance(16, 47))
}

// BenchmarkDPLiveDeep re-solves the same fleet under a burst-deep buffer
// of 40.
func BenchmarkDPLiveDeep(b *testing.B) {
	benchResolve(b, benchSlackInstance(40, 48), benchSlackInstance(40, 49))
}

// BenchmarkGreedyEDF is the Greedy baseline on BenchmarkDPResolve's first
// instance.
func BenchmarkGreedyEDF(b *testing.B) {
	g, in := &Greedy{Order: EDF}, benchInstance(8, 3, 42)
	for i := 0; i < 4; i++ {
		in.schedule(g)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.schedule(g)
	}
}

func benchmarkScheduler(b *testing.B, s Scheduler, n, m int) {
	in := benchInstance(n, m, 42)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.schedule(s)
	}
}

func BenchmarkDPSchedule4Queries(b *testing.B)  { benchmarkScheduler(b, &DP{Delta: 0.01}, 4, 3) }
func BenchmarkDPSchedule8Queries(b *testing.B)  { benchmarkScheduler(b, &DP{Delta: 0.01}, 8, 3) }
func BenchmarkDPSchedule16Queries(b *testing.B) { benchmarkScheduler(b, &DP{Delta: 0.01}, 16, 3) }
func BenchmarkDPScheduleDelta001(b *testing.B) {
	benchmarkScheduler(b, &DP{Delta: 0.001}, 8, 3)
}
func BenchmarkDPScheduleDelta1(b *testing.B) { benchmarkScheduler(b, &DP{Delta: 0.1}, 8, 3) }
func BenchmarkDPScheduleUnpruned(b *testing.B) {
	benchmarkScheduler(b, &DP{Delta: 0.01, DisablePrune: true}, 8, 3)
}
func BenchmarkGreedyEDFSchedule16(b *testing.B) {
	benchmarkScheduler(b, &Greedy{Order: EDF}, 16, 3)
}
