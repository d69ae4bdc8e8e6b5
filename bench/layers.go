package main

import "sort"

// addRequestSpans records each request's root span: intended send time to
// the result in the caller's hands. The generator's clock and the tracer
// share an epoch, so record times are tracer times.
func addRequestSpans(tr *tracer, recs []*record) {
	for i, r := range recs {
		if r != nil {
			tr.add(spRequest, i, int64(r.at), int64(r.done))
		}
	}
}

// layerInput is everything the per-layer figures are computed from.
type layerInput struct {
	spans    []span
	probe    *probe
	recs     []*record
	win      window
	stats    runtimeStats
	smp      samples
	overHTTP bool
}

// dist accumulates one duration distribution in microseconds.
type dist []float64

func (d *dist) add(ns int64)       { *d = append(*d, float64(ns)/1e3) }
func (d dist) p(q float64) float64 { return percentile(sortedCopy(d), q) }

func (d dist) totalSeconds() float64 {
	var us float64
	for _, v := range d {
		us += v
	}
	return us / 1e6
}

// reqTimes are the per-request instants the outside-in breakdown needs.
type reqTimes struct {
	submitEnd          int64 // SubmitClass returned (over HTTP: the predictor did)
	firstExec, lastRun int64 // first task picked up; last Predict returned
	execs              int
}

// layerMetrics derives every per-layer metric from one traced run. Layers a
// workload bypasses report 0.
func layerMetrics(in layerInput) map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = 0
	}
	from, to := int64(in.win.from), int64(in.win.to)
	inWindow := func(s span) bool { return s.start >= from && s.start < to }
	measured := func(req int32) bool {
		return req >= 0 && int(req) < len(in.recs) && in.recs[req] != nil && in.win.holds(in.recs[req].at)
	}
	self := selfTimes(in.spans)
	seconds := in.win.seconds()
	reqs := float64(max(in.smp.sent, 1))

	var byKind [numSpanKinds]dist
	var submitSelf dist
	busy := make(map[int8]float64) // model -> seconds inside model.exec
	times := make(map[int32]*reqTimes)
	at := func(req int32) *reqTimes {
		t := times[req]
		if t == nil {
			t = &reqTimes{}
			times[req] = t
		}
		return t
	}
	for i, s := range in.spans {
		if s.req == noRequest {
			if !inWindow(s) {
				continue
			}
		} else if !measured(s.req) {
			continue
		}
		byKind[s.kind].add(s.dur())
		switch s.kind {
		case spSubmit:
			submitSelf.add(self[i])
			at(s.req).submitEnd = s.end
		case spScore:
			if in.overHTTP {
				at(s.req).submitEnd = s.end
			}
		case spExec:
			busy[s.sub] += float64(s.dur()) / 1e9
			t := at(s.req)
			if t.execs == 0 || s.start < t.firstExec {
				t.firstExec = s.start
			}
			t.lastRun = max(t.lastRun, s.end)
			t.execs++
		}
	}

	var dispatchWait, execSpan, finish, transport, added dist
	for req, t := range times {
		r := in.recs[req]
		if t.execs > 0 && t.submitEnd > 0 {
			dispatchWait.add(t.firstExec - t.submitEnd)
			execSpan.add(t.lastRun - t.firstExec)
			if r.ans.onTime() && !r.ans.cached && int64(r.done) >= t.lastRun {
				finish.add(int64(r.done) - t.lastRun)
				if in.overHTTP {
					// Everything on the round trip that is not model
					// execution: what the runtime and HTTP add.
					added.add(int64(r.done-r.sent) - (t.lastRun - t.firstExec))
				}
			}
		}
	}
	non200 := 0
	if in.overHTTP {
		handle := make(map[int32]int64)
		for _, s := range in.spans {
			if s.kind == spHandle && measured(s.req) {
				handle[s.req] = s.dur()
			}
		}
		for i, r := range in.recs {
			if r == nil || !in.win.holds(r.at) {
				continue
			}
			if r.ans.status != 200 {
				non200++
			}
			if h, ok := handle[int32(i)]; ok {
				transport.add(int64(r.done-r.sent) - h)
			}
		}
	}

	set := func(name string, v float64) { m[name] = v }
	share := func(n, of float64) float64 {
		if of <= 0 {
			return 0
		}
		return n / of
	}

	set("httpserve.handle_us_p50", byKind[spHandle].p(0.5))
	set("httpserve.handle_us_p99", byKind[spHandle].p(0.99))
	set("httpserve.transport_us_p50", transport.p(0.5))
	set("httpserve.added_us_p50", added.p(0.5))
	set("httpserve.non200_share", share(float64(non200), reqs))

	set("discrepancy.predict_us_p50", byKind[spScore].p(0.5))
	set("discrepancy.predict_us_p99", byKind[spScore].p(0.99))
	set("discrepancy.busy_share", byKind[spScore].totalSeconds()/seconds)

	set("serve.submit_us_p50", byKind[spSubmit].p(0.5))
	set("serve.submit_us_p99", byKind[spSubmit].p(0.99))
	set("serve.submit_self_us_p50", submitSelf.p(0.5))
	set("serve.dispatch_wait_us_p50", dispatchWait.p(0.5))
	set("serve.dispatch_wait_us_p99", dispatchWait.p(0.99))
	set("serve.exec_span_us_p50", execSpan.p(0.5))
	set("serve.finish_us_p50", finish.p(0.5))
	set("serve.finish_us_p99", finish.p(0.99))
	over := make(dist, len(in.probe.overshoot))
	for i, ns := range in.probe.overshoot {
		over[i] = ns / 1e3
	}
	set("serve.timer_overshoot_us_p50", over.p(0.5))
	set("serve.timer_overshoot_us_p99", over.p(0.99))
	submitted := float64(in.stats.submitted)
	set("serve.rejected_share", share(float64(in.stats.rejected), submitted))
	set("serve.degraded_share", share(float64(in.stats.degraded), submitted))

	var offered, placed, rewards, nonEmpty, reused float64
	var lens []float64
	for _, c := range in.probe.sched {
		if c.at < from || c.at >= to {
			continue
		}
		lens = append(lens, float64(c.offered))
		offered += float64(c.offered)
		placed += float64(c.placed)
		rewards += float64(c.rewards)
		if c.offered > 0 {
			nonEmpty++
			if c.rewards == 0 {
				reused++
			}
		}
	}
	sort.Float64s(lens)
	set("core.schedule_calls_per_req", share(float64(len(byKind[spSchedule])), reqs))
	set("core.schedule_us_p50", byKind[spSchedule].p(0.5))
	set("core.schedule_us_p99", byKind[spSchedule].p(0.99))
	set("core.schedule_busy_share", byKind[spSchedule].totalSeconds()/seconds)
	set("core.buffer_len_mean", mean(lens))
	set("core.buffer_len_p99", percentile(lens, 0.99))
	set("core.placed_share", share(placed, offered))
	set("core.reward_calls_per_schedule", share(rewards, float64(len(lens))))
	set("core.reuse_hit_share", share(reused, nonEmpty))

	var occMax, occSum float64
	for _, b := range busy {
		occMax = max(occMax, b/seconds)
		occSum += b / seconds
	}
	used := 0
	for _, r := range in.recs {
		if r != nil && r.ans.onTime() && !r.ans.cached {
			used += len(r.ans.subset)
		}
	}
	started := float64(in.probe.tasksStarted.Load())
	set("model.predict_us_p50", byKind[spModelPredict].p(0.5))
	set("model.tasks_per_req", share(float64(len(byKind[spExec])), reqs))
	set("model.occupancy_max", occMax)
	set("model.occupancy_mean", share(occSum, float64(len(busy))))
	set("model.wasted_task_share", max(0, 1-share(float64(used), started)))

	set("ensemble.aggregate_us_p50", byKind[spAggregate].p(0.5))
	set("ensemble.aggregate_calls_per_req", share(float64(len(byKind[spAggregate])), reqs))

	set("qos.shed_share", share(float64(in.stats.shed), submitted))
	set("qos.top_class_ontime_share", share(float64(in.stats.topClassOnTime), float64(in.stats.topClassSubmitted)))
	set("rcache.hit_share", share(float64(in.stats.cacheHits), submitted))
	set("rcache.key_us_p50", byKind[spKey].p(0.5))
	set("adapt.score_us_p50", byKind[spAdaptScore].p(0.5))
	set("adapt.inflation_max", in.stats.inflationMax)
	set("obsv.traces_per_req", share(float64(in.probe.sinkTraces.Load()), submitted))
	set("obsv.dropped_share", share(float64(in.stats.obsvDropped), float64(in.stats.obsvTraces)))

	set("gen.late_us_p50", percentile(in.smp.lateUS, 0.5))
	set("gen.late_us_p99", percentile(in.smp.lateUS, 0.99))
	set("trace.spans", float64(len(in.spans)))
	return m
}

// traceAccounts is the share of the traced run's median latency that the
// four outside-in stages explain: p50(submit) + p50(dispatch wait) +
// p50(exec span) + p50(finish) over latency p50.
func traceAccounts(m map[string]float64, latencyP50MS float64) float64 {
	if latencyP50MS <= 0 {
		return 0
	}
	sum := m["serve.submit_us_p50"] + m["serve.dispatch_wait_us_p50"] +
		m["serve.exec_span_us_p50"] + m["serve.finish_us_p50"]
	return sum / 1e3 / latencyP50MS
}
