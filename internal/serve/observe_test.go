package serve

import (
	"context"
	"reflect"
	"testing"
	"time"

	"schemble/internal/obsv"
)

// newObsServer builds a fault-free server with observability enabled,
// otherwise identical to newServer.
func newObsServer(t *testing.T, obs obsv.Config) *Server {
	t.Helper()
	cfg := baseConfig(artifacts(t))
	cfg.Obs = obs
	return New(cfg)
}

// TestServeObservabilityBitIdentical extends the determinism guarantee to
// the new hooks: a twin pair of seeded servers — one with observability
// off (zero-value config), one with tracing on — must produce identical
// Results request for request, because the observability path makes no
// random draw. Requests are submitted sequentially so subset selection is
// deterministic.
func TestServeObservabilityBitIdentical(t *testing.T) {
	const n = 25
	plain, traced := twins(t, artifacts(t), n, func(c *Config) { c.Obs = obsv.Config{TraceBuffer: 256} })
	if plain.Observer() != nil {
		t.Fatal("zero-value Obs config built an observer")
	}
	// The traced twin recorded one trace per request, outcomes matching.
	traces := traced.Observer().Last(n)
	if len(traces) != n {
		t.Fatalf("recorded %d traces, want %d", len(traces), n)
	}
	for i, tr := range traces {
		if tr.ID != uint64(i+1) {
			t.Errorf("trace %d ID = %d", i, tr.ID)
		}
		if tr.Outcome != obsv.OutcomeServed {
			t.Errorf("trace %d outcome = %q", i, tr.Outcome)
		}
	}
	snap := traced.Observer().Snapshot()
	if snap.TracesTotal != n || snap.TracesDropped != 0 {
		t.Errorf("trace counters = %d/%d", snap.TracesTotal, snap.TracesDropped)
	}
	if snap.Latency[obsv.OutcomeServed].Count != n {
		t.Errorf("served latency histogram count = %d, want %d",
			snap.Latency[obsv.OutcomeServed].Count, n)
	}
}

// TestDecisionTraceCapture checks one request's trace carries the full
// decision context: score, phase timestamps in order, the committed
// subset with ranked alternatives, and per-model runtime state.
func TestDecisionTraceCapture(t *testing.T) {
	a := artifacts(t)
	s := newObsServer(t, obsv.Config{TraceBuffer: 16})
	s.Start(context.Background())
	defer s.Stop()

	sample := a.Serve[7]
	res := <-s.Submit(sample, time.Second)
	if res.Missed {
		t.Fatal("uncontended request missed")
	}
	traces := s.Observer().Last(1)
	if len(traces) != 1 {
		t.Fatalf("got %d traces", len(traces))
	}
	tr := traces[0]
	if tr.ID != 1 || tr.SampleID != sample.ID {
		t.Errorf("identity = id %d sample %d", tr.ID, tr.SampleID)
	}
	if want := a.Predictor.Predict(sample); tr.Score != want {
		t.Errorf("score = %v, want %v", tr.Score, want)
	}
	// Phases move strictly forward; the deadline sits one virtual second
	// past arrival.
	if !(tr.Queued <= tr.Scored && tr.Scored <= tr.Committed && tr.Committed <= tr.Resolved) {
		t.Errorf("phases out of order: queued=%v scored=%v committed=%v resolved=%v",
			tr.Queued, tr.Scored, tr.Committed, tr.Resolved)
	}
	if tr.Deadline != tr.Queued+time.Second {
		t.Errorf("deadline = %v, want queued+1s", tr.Deadline)
	}
	if tr.Latency <= 0 || tr.Latency != tr.Resolved-tr.Queued {
		t.Errorf("latency = %v (resolved-queued = %v)", tr.Latency, tr.Resolved-tr.Queued)
	}
	// Decision context: committed subset matches the result, alternatives
	// are ranked by reward, runtime state covers every model.
	if !reflect.DeepEqual(tr.Subset, res.Subset.Models()) {
		t.Errorf("trace subset %v != result subset %v", tr.Subset, res.Subset.Models())
	}
	if !reflect.DeepEqual(tr.Served, res.Subset.Models()) {
		t.Errorf("served %v != result subset %v", tr.Served, res.Subset.Models())
	}
	if len(tr.Alternatives) == 0 || len(tr.Alternatives) > maxTraceAlternatives {
		t.Fatalf("alternatives = %d", len(tr.Alternatives))
	}
	for i := 1; i < len(tr.Alternatives); i++ {
		if tr.Alternatives[i].Reward > tr.Alternatives[i-1].Reward {
			t.Errorf("alternatives not ranked: %+v", tr.Alternatives)
		}
	}
	m := a.Ensemble.M()
	if len(tr.QueueDepths) != m || len(tr.BusyUntil) != m {
		t.Errorf("runtime state sized %d/%d, want %d", len(tr.QueueDepths), len(tr.BusyUntil), m)
	}
	if len(tr.Blocked) != 0 {
		t.Errorf("fault-free run blocked models %v", tr.Blocked)
	}
	if tr.Retries != 0 || tr.Hedges != 0 || tr.Timeouts != 0 {
		t.Errorf("fault-free run recorded mitigations: %+v", tr)
	}
	if tr.Outcome != obsv.OutcomeServed {
		t.Errorf("outcome = %q", tr.Outcome)
	}
}

// TestRejectedTraceOutcome checks a shed request still produces a trace,
// labeled rejected, with no commit-phase context.
func TestRejectedTraceOutcome(t *testing.T) {
	a := artifacts(t)
	s := newObsServer(t, obsv.Config{TraceBuffer: 16})
	s.Start(context.Background())
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	res := <-s.Submit(a.Serve[0], time.Second)
	if !res.Rejected {
		t.Fatal("post-drain submit not rejected")
	}
	traces := s.Observer().Last(1)
	if len(traces) != 1 {
		t.Fatalf("got %d traces", len(traces))
	}
	tr := traces[0]
	if tr.Outcome != obsv.OutcomeRejected {
		t.Errorf("outcome = %q", tr.Outcome)
	}
	if tr.Committed != 0 || len(tr.Subset) != 0 || len(tr.Served) != 0 {
		t.Errorf("rejected trace carries commit context: %+v", tr)
	}
}

// TestTraceSinkReceivesAll wires a sink and checks every resolved request
// reaches it even with the ring disabled.
func TestTraceSinkReceivesAll(t *testing.T) {
	a := artifacts(t)
	var got []obsv.DecisionTrace
	ch := make(chan obsv.DecisionTrace, 16)
	s := newObsServer(t, obsv.Config{Sink: func(tr obsv.DecisionTrace) { ch <- tr }})
	s.Start(context.Background())
	defer s.Stop()
	const n = 5
	for i := 0; i < n; i++ {
		<-s.Submit(a.Serve[i], time.Second)
	}
	for i := 0; i < n; i++ {
		got = append(got, <-ch)
	}
	for i, tr := range got {
		if tr.ID != uint64(i+1) || tr.SampleID != a.Serve[i].ID {
			t.Errorf("sink trace %d = id %d sample %d", i, tr.ID, tr.SampleID)
		}
	}
	// Sink-only config buffers nothing.
	if traces := s.Observer().Last(10); len(traces) != 0 {
		t.Errorf("ring holds %d traces with TraceBuffer = 0", len(traces))
	}
}
