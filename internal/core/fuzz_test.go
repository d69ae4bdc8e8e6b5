package core

import (
	"testing"
	"time"

	"schemble/internal/ensemble"
)

// decodeFuzzInstance turns an arbitrary byte string into a bounded
// scheduling instance: 1–4 models with 1–3 replicas each, up to six
// queries, and after them one byte per query while bytes last, whose low
// bits are its sunk models and high bits when they finish. Bounds are
// harness-level (the fuzzer explores scheduler logic, not resource
// exhaustion); within them every byte value is legal, so the
// fuzzer is free to construct degenerate shapes — zero exec deltas,
// deadlines before now, duplicate availabilities, idle and saturated
// pools.
func decodeFuzzInstance(data []byte) (instance, bool) {
	const maxQueries = 6
	if len(data) < 2 {
		return instance{}, false
	}
	m := 1 + int(data[0]%4)
	inst := instance{
		now:  time.Duration(data[1]%64) * ms,
		m:    m,
		cap:  make(Capacity, m),
		exec: make([]time.Duration, m),
	}
	pos := 2
	for k := 0; k < m; k++ {
		if pos >= len(data) {
			return instance{}, false
		}
		slots := make([]time.Duration, 1+int(data[pos]%3))
		pos++
		for r := range slots {
			if pos >= len(data) {
				return instance{}, false
			}
			slots[r] = time.Duration(data[pos]%128) * ms
			pos++
		}
		inst.cap[k] = slots
		if pos >= len(data) {
			return instance{}, false
		}
		inst.exec[k] = time.Duration(1+int(data[pos]%100)) * ms
		pos++
	}
	for len(inst.queries) < maxQueries && pos+3 <= len(data) {
		arrival := time.Duration(data[pos]%100) * ms
		inst.queries = append(inst.queries, QueryInfo{
			ID:       len(inst.queries) + 1,
			Arrival:  arrival,
			Deadline: arrival + time.Duration(10+int(data[pos+1]))*ms,
			Score:    float64(data[pos+2]) / 255,
		})
		pos += 3
	}
	for i := 0; i < len(inst.queries) && pos < len(data); i, pos = i+1, pos+1 {
		inst.queries[i].Sunk = ensemble.Subset(data[pos]) & ensemble.Full(m)
		inst.queries[i].SunkBy = inst.now + time.Duration(data[pos]>>4)*8*ms
	}
	if len(inst.queries) == 0 {
		return instance{}, false
	}
	return inst, true
}

// FuzzDPSchedule drives the DP scheduler (and the greedy baseline on the
// same instance) over fuzzer-shaped instances and configuration knobs,
// asserting the invariants that must survive any input: no panic, plans
// replay feasibly in EDF order on replica capacity, TotalReward is the
// exact sum of the assignments' rewards, and every assignment refers to a
// real query with a subset inside the model universe, and sunk models take
// no slot. The same DP then
// re-plans the queue after an arrival and after a departure, and all
// three plans must equal ReferenceDP's bit for bit — the property the
// level bounds and the incumbent that raises them have to keep, on a
// fresh instance and on a warm one.
func FuzzDPSchedule(f *testing.F) {
	f.Add([]byte("\x02\x10\x01\x05\x14\x01\x0a\x1e\x20\x40\x30\x10\x60\x55\x30\x21"), uint16(10), uint16(0), false, false)
	f.Add([]byte("\x02\x00\x02\x00\x10\x20\x32\x00\x50\x14\x01\x05\x06\x40\x00\x64\x80\x10\x20\xff"), uint16(1), uint16(2), true, false)
	f.Add([]byte("\x00\x3f\x02\x7f\x7f\x63\x63\x00\x01\x02\x63\xfe\xff"), uint16(100), uint16(16), false, true)
	f.Add([]byte("\x00\x01\x00\x05\x0a\x00\x32\x7f"), uint16(500), uint16(1), true, true)
	f.Add([]byte("\x02\x10\x01\x05\x14\x01\x0a\x1e\x20\x40\x30\x10\x60\x55\x30\x21\x31\x02"), uint16(10), uint16(0), false, false)
	f.Fuzz(func(t *testing.T, data []byte, deltaRaw, windowRaw uint16, vanilla, noPrune bool) {
		inst, ok := decodeFuzzInstance(data)
		if !ok {
			t.Skip("undecodable instance")
		}
		// Delta below 0.001 makes the table size, not the algorithm, the
		// subject under test; clamp at the harness.
		delta := float64(1+deltaRaw%1000) / 1000
		d := &DP{
			Delta:        delta,
			MaxWindow:    int(windowRaw % 20),
			Vanilla:      vanilla,
			DisablePrune: noPrune,
		}
		ref := &ReferenceDP{Delta: delta, MaxWindow: d.MaxWindow, Vanilla: vanilla, DisablePrune: noPrune}
		r := rootRewarder{m: inst.m}
		all := inst.queries
		for _, step := range []struct {
			tag     string
			queries []QueryInfo
		}{
			{"dp/before-arrival", all[:len(all)-1]},
			{"dp", all},
			{"dp/after-departure", all[1:]},
		} {
			inst.queries = step.queries
			plan := d.Schedule(inst.now, inst.queries, inst.cap, inst.exec, r)
			checkFuzzPlan(t, step.tag, inst, plan, r)
			samePlan(t, step.tag, plan, ref.Schedule(inst.now, inst.queries, inst.cap, inst.exec, r))
		}
		inst.queries = all
		g := &Greedy{Order: Order(int(deltaRaw) % 3)}
		checkFuzzPlan(t, g.Name(), inst,
			g.Schedule(inst.now, inst.queries, inst.cap, inst.exec, r), r)
	})
}

// checkFuzzPlan asserts the structural invariants of one plan against its
// instance.
func checkFuzzPlan(t *testing.T, tag string, inst instance, plan Plan, r Rewarder) {
	t.Helper()
	known := make(map[int]bool, len(inst.queries))
	for _, q := range inst.queries {
		known[q.ID] = true
	}
	universe := ensemble.Full(inst.m)
	for id, s := range plan.Assignments {
		if !known[id] {
			t.Fatalf("%s: assignment for unknown query %d", tag, id)
		}
		if s&^universe != ensemble.Empty {
			t.Fatalf("%s: query %d assigned models outside the %d-model universe: %v",
				tag, id, inst.m, s.Models())
		}
	}
	replayFeasible(t, tag, 0, inst, plan, r)
}
