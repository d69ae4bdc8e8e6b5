package serve

import (
	"context"
	"time"

	"schemble/internal/model"
)

// maxBatchCap bounds MaxBatch so the per-size histogram and the linger
// loop stay small; no realistic micro-batch exceeds it.
const maxBatchCap = 256

// BatchConfig opts a server's replica pools into adaptive micro-batching.
// A replica that picks a task off its model's queue keeps draining the
// queue — waiting up to MaxLinger (virtual time) for stragglers once the
// queue runs dry — until it holds MaxBatch tasks, then executes the whole
// batch as one unit whose duration follows the model's BatchCurve.
// Batching trades per-item latency for throughput; the coordinator plans
// with the amortized per-item cost Curve.Amortized(exec, MaxBatch) so the
// scheduler sees the trade-off. The zero value (MaxBatch <= 1) disables
// batching and keeps the runtime bit-identical to the single-task worker
// loop.
type BatchConfig struct {
	// MaxBatch is the largest batch one replica executes at once; <= 1
	// disables batching, values above maxBatchCap are clamped.
	MaxBatch int
	// MaxLinger is the longest a forming batch waits for more tasks once
	// the queue is empty, in virtual (unscaled) time. 0 means a batch
	// executes immediately with whatever the queue held.
	MaxLinger time.Duration
	// Curve is the batch latency curve; the zero value uses
	// model.DefaultBatchMarginal.
	Curve model.BatchCurve
	// CurvePerModel[k], when its Marginal is set, overrides Curve for
	// model k (heterogeneous batching efficiency across architectures).
	CurvePerModel []model.BatchCurve
}

// enabled reports whether batching is on after clamping.
func (b BatchConfig) enabled() bool { return b.MaxBatch > 1 }

// curve resolves model k's batch latency curve.
func (b BatchConfig) curve(k int) model.BatchCurve {
	if k < len(b.CurvePerModel) {
		//schemble:floateq-ok zero-value config sentinel: the field is set verbatim by callers, never computed
		if b.CurvePerModel[k].Marginal != 0 {
			return b.CurvePerModel[k]
		}
	}
	return b.Curve
}

// formBatch drains model k's queue into a micro-batch seeded with t: an
// immediate non-blocking sweep first, then a linger window (MaxLinger,
// scaled to wall time) while the batch is below capacity. Every pulled
// task is counted in the forming gauge so queue-depth accounting never
// loses (or double-counts) a task that left the channel but has not been
// reported yet. On cancellation the partial batch is returned; the caller
// notices ctx and exits, and shutdown resolves the affected requests.
func (s *Server) formBatch(ctx context.Context, w *waiter, k int, t *task) []*task {
	s.forming[k].Add(1)
	batch := []*task{t}
	for len(batch) < s.maxBatch {
		select {
		case t2 := <-s.taskCh[k]:
			s.forming[k].Add(1)
			batch = append(batch, t2)
			continue
		default:
		}
		break
	}
	if len(batch) >= s.maxBatch || s.cfg.Batching.MaxLinger <= 0 {
		return batch
	}
	w.timer.Reset(time.Duration(float64(s.cfg.Batching.MaxLinger) * s.scale))
	defer w.disarm()
	for len(batch) < s.maxBatch {
		select {
		case t2 := <-s.taskCh[k]:
			s.forming[k].Add(1)
			batch = append(batch, t2)
		case <-w.timer.C:
			return batch
		case <-ctx.Done():
			return batch
		}
	}
	return batch
}

// runBatch executes one formed micro-batch on replica r of model k and
// reports every task's completion event. Tasks whose request already
// resolved are reported without executing, exactly like the single-task
// path. Returns false when the runtime context was cancelled and the
// worker must exit.
func (s *Server) runBatch(ctx context.Context, w *waiter, m model.Model, inj *model.Faulty, k, r int, batch []*task) bool {
	// Every batch member holds one forming count (taken in formBatch).
	// Counts are released as each completion event is sent; the deferred
	// sweep releases the rest on early exits (cancellation mid-execution
	// or mid-report), so a dying worker can never strand the gauge above
	// zero.
	reported := 0
	defer func() {
		if reported < len(batch) {
			s.forming[k].Add(int64(reported - len(batch)))
		}
	}()
	live := make([]*task, 0, len(batch))
	for _, t := range batch {
		if !t.req.isResolved() {
			live = append(live, t)
		}
	}
	// taskOK[i] is whether live[i] produced an output; taskDone[i] marks
	// the task that completed its request's last outstanding model (it
	// must be decided inside the same critical section as the remaining
	// decrement, or a sibling task on another model could observe zero
	// concurrently and two events would both claim completion).
	taskOK := make([]bool, len(live))
	taskDone := make([]bool, len(live))
	// cutoffAt is the deadline the batch was abandoned at, when it was:
	// the latest among its live tasks, so only the requests with that very
	// deadline were completed by their own deadline's arrival.
	var cutoffAt time.Time
	if n := len(live); n > 0 {
		deadline := live[0].req.wallDeadline
		for _, t := range live[1:] {
			if t.req.wallDeadline.After(deadline) {
				deadline = t.req.wallDeadline
			}
		}
		rc := &s.rstats[k][r]
		rc.busy.Store(int32(n))
		vlat, end := s.executeBatch(ctx, w, m, inj, k, live, deadline)
		rc.busy.Store(0)
		if end == endDead {
			return false
		}
		ok := end == endOK
		if end == endCutoff {
			cutoffAt = deadline
		}
		s.batchHist[k][n-1].Add(1)
		s.mstats[k].executed.Add(uint64(n))
		rc.executed.Add(uint64(n))
		if ok && s.eng.Adapt != nil {
			vnow := s.vnow()
			for range live {
				s.eng.Adapt.ObserveLatency(vnow, k, r, vlat)
			}
		}
		for i, t := range live {
			out := model.Output{}
			tok := false
			if ok {
				// The batch kernel ran: materialize each task's output,
				// containing per-sample Predict panics so one bad input
				// fails only its own task.
				out, tok = s.safePredict(m, k, t.req.sample)
			}
			taskOK[i] = tok
			if !tok {
				s.mstats[k].failures.Add(1)
				rc.failures.Add(1)
			}
			t.req.mu.Lock()
			if t.req.state != stateResolved {
				t.req.remaining--
				if tok {
					t.req.outs[k] = out
					t.req.ok = t.req.ok.With(k)
				} else {
					t.req.failed++
				}
				taskDone[i] = t.req.remaining == 0
			}
			t.req.mu.Unlock()
		}
	}
	// Report every task — executed, failed, or skipped — so the
	// coordinator's backlog and breaker accounting stays truthful.
	li := 0
	for _, t := range batch {
		ran, failed, done := false, false, false
		if li < len(live) && live[li] == t {
			ran, failed, done = true, !taskOK[li], taskDone[li]
			li++
		}
		select {
		case s.events <- event{kind: evTaskDone, req: t.req, k: k, done: done, ran: ran, failed: failed, cutoff: ran && t.req.wallDeadline.Equal(cutoffAt)}:
			s.forming[k].Add(-1)
			reported++
		case <-ctx.Done():
			return false
		}
	}
	return true
}

// executeBatch runs the batch-wide attempt chain: one latency draw
// stretched by the model's batch curve, one injected-fault decision (the
// batch is a single kernel invocation, so a transient fault or crash
// fails the whole batch and a straggler stretches it), a deadline cutoff
// at deadline, the latest among the live tasks', and retries with jittered
// backoff.
// Hedging never applies to batches — re-issuing a whole batch would
// double the fleet's work for one straggler. end says how the chain
// ended: endOK when the kernel ran to completion.
func (s *Server) executeBatch(ctx context.Context, w *waiter, m model.Model, inj *model.Faulty, k int, live []*task, deadline time.Time) (vlat time.Duration, end taskEnd) {
	c := &s.mstats[k]
	n := len(live)
	curve := s.cfg.Batching.curve(k)
	obsTimeout := func() {
		c.timeouts.Add(uint64(n))
		if s.obs != nil {
			for _, t := range live {
				t.req.obsTimeouts.Add(1)
			}
		}
	}
	for attempt := 0; ; attempt++ {
		s.srcMu.Lock()
		lat := m.SampleLatency(s.src)
		s.srcMu.Unlock()
		//schemble:wallclock the batch attempt's wall-clock start: the drift schedule, the fault injector's crash windows, the deadline budget and the wait target are all taken from this one instant
		now := time.Now()
		if s.cfg.Drift != nil {
			lat = time.Duration(float64(lat) * s.cfg.Drift(k, s.virtual(now)))
		}
		lat = curve.Latency(lat, n)
		dec := model.Decision{Kind: model.FaultNone, LatencyFactor: 1}
		if inj != nil {
			dec = inj.Attempt(now, lat)
		}
		if dec.Kind == model.FaultCrash || dec.Kind == model.FaultTransient {
			if dec.Kind == model.FaultCrash {
				c.crashes.Add(1)
			} else {
				c.transient.Add(1)
			}
			retry, alive := s.backoffUntil(ctx, w, deadline, attempt)
			if !alive {
				return 0, endDead
			}
			if retry {
				c.retries.Add(1)
				if s.obs != nil {
					for _, t := range live {
						t.req.obsRetries.Add(1)
					}
				}
				continue
			}
			return 0, endFailed
		}
		if dec.Kind == model.FaultStraggler {
			c.stragglers.Add(1)
		}
		// A batch already past its latest live deadline arms nothing.
		cutoff := never
		if s.tol.TaskTimeout {
			if cutoff = deadline.Sub(now); cutoff <= 0 {
				obsTimeout()
				return 0, endCutoff
			}
		}
		d := time.Duration(float64(lat) * dec.LatencyFactor * s.scale)
		wake, kind := earliestWake(d, never, cutoff)
		over, alive := w.until(ctx, now.Add(wake))
		if !alive {
			return 0, endDead
		}
		c.overshoot.Observe(over)
		if kind == wakeCutoff {
			// Every live deadline has passed mid-batch: abandon the kernel
			// instead of occupying the replica past usefulness.
			obsTimeout()
			return 0, endCutoff
		}
		// The batch's virtual service time: each member task observes
		// the full batch duration (as each of sim's per-task events does).
		return time.Duration(float64(lat) * dec.LatencyFactor), endOK
	}
}
