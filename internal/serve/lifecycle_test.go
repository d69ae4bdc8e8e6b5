package serve

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"schemble/internal/core"
	"schemble/internal/dataset"
	"schemble/internal/ensemble"
	"schemble/internal/testutil"
)

// assertNoSecondResult fails the test if a resolved request's channel
// holds a second value — which would mean the exactly-once guarantee
// broke.
func assertNoSecondResult(t *testing.T, i int, ch <-chan Result) {
	t.Helper()
	select {
	case r := <-ch:
		t.Fatalf("request %d resolved twice (second result: %+v)", i, r)
	default:
	}
}

// TestServeStressExactlyOnce hammers the server with concurrent Submits
// while Stop races mid-flight, and asserts every done channel receives
// exactly one Result. Run with -race to exercise the lifecycle
// synchronization.
func TestServeStressExactlyOnce(t *testing.T) {
	a := artifacts(t)
	s := newServer(t, a)
	s.Start(context.Background())

	const (
		submitters = 8
		perSub     = 15
	)
	chans := make(chan (<-chan Result), submitters*perSub)
	var wg sync.WaitGroup
	for w := 0; w < submitters; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSub; i++ {
				idx := (w*perSub + i) % len(a.Serve)
				chans <- s.Submit(a.Serve[idx], 200*time.Millisecond)
			}
		}()
	}
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		// Let some work commit first; on timeout stop anyway — the
		// assertions below hold for any commit/stop interleaving.
		testutil.Wait(time.Second, func() bool {
			st := s.Stats()
			return st.InFlight > 0 || st.Resolved > 0
		})
		s.Stop()
	}()
	wg.Wait()
	<-stopped
	close(chans)

	var results []<-chan Result
	i := 0
	for ch := range chans {
		select {
		case <-ch:
		case <-time.After(5 * time.Second):
			t.Fatalf("request %d never resolved", i)
		}
		results = append(results, ch)
		i++
	}
	// Stop has returned, so nothing is left that could deliver a second
	// result.
	for i, ch := range results {
		assertNoSecondResult(t, i, ch)
	}
	st := s.Stats()
	if st.Submitted != submitters*perSub {
		t.Errorf("Submitted = %d, want %d", st.Submitted, submitters*perSub)
	}
	if st.Resolved != st.Submitted {
		t.Errorf("Resolved = %d, want every submitted request resolved (%d)",
			st.Resolved, st.Submitted)
	}
	if st.Buffered != 0 || st.InFlight != 0 {
		t.Errorf("post-shutdown backlog: buffered=%d inflight=%d, want 0/0",
			st.Buffered, st.InFlight)
	}
	// A worker killed mid-task releases its busy gauge, so Stats never
	// reports a ghost task after shutdown.
	for k, busy := range st.ReplicaBusy {
		for r, b := range busy {
			if b != 0 {
				t.Errorf("model %d replica %d busy gauge stuck at %d after Stop", k, r, b)
			}
		}
	}
}

// TestServeTinyQueueOverflow floods a QueueDepth=1 server: saturation must
// surface as explicit rejections, never as hangs or leaks, and the server
// must keep serving afterwards.
func TestServeTinyQueueOverflow(t *testing.T) {
	a := artifacts(t)
	s := New(Config{
		Ensemble:   a.Ensemble,
		Scheduler:  &core.DP{Delta: 0.01},
		Rewarder:   a.Profile,
		Estimator:  a.Predictor,
		TimeScale:  0.1,
		QueueDepth: 1,
		Seed:       1,
	})
	s.Start(context.Background())
	defer s.Stop()

	const n = 60
	chans := make([]<-chan Result, n)
	for i := 0; i < n; i++ {
		chans[i] = s.Submit(a.Serve[i%len(a.Serve)], 300*time.Millisecond)
	}
	rejected := 0
	for i, ch := range chans {
		select {
		case r := <-ch:
			if r.Rejected {
				rejected++
				if !r.Missed {
					t.Errorf("request %d rejected but not missed", i)
				}
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("request %d never resolved under overflow", i)
		}
	}
	if rejected == 0 {
		t.Error("tiny-queue burst produced no explicit rejections")
	}
	st := s.Stats()
	if st.Resolved != n {
		t.Errorf("Resolved = %d, want %d", st.Resolved, n)
	}
	if st.Rejected == 0 {
		t.Error("stats recorded no rejections")
	}
	// The runtime must remain healthy: an uncontended request afterwards
	// is served, not rejected.
	testutil.Poll(t, 5*time.Second, "burst backlog cleared", func() bool {
		st := s.Stats()
		return st.Buffered == 0 && st.InFlight == 0
	})
	select {
	case r := <-s.Submit(a.Serve[0], time.Second):
		if r.Rejected {
			t.Error("uncontended post-burst request was rejected")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("post-burst request never resolved")
	}
}

// TestServeDrainFinishesCommitted verifies graceful drain: committed work
// runs to completion, uncommitted work resolves as missed, new Submits are
// rejected, and Drain returns once the runtime has stopped.
func TestServeDrainFinishesCommitted(t *testing.T) {
	a := artifacts(t)
	s := newServer(t, a)
	s.Start(context.Background())

	const n = 10
	chans := make([]<-chan Result, n)
	for i := 0; i < n; i++ {
		chans[i] = s.Submit(a.Serve[i], 2*time.Second)
	}
	testutil.Poll(t, 5*time.Second, "coordinator committed work", func() bool {
		st := s.Stats()
		return st.InFlight > 0 || st.Resolved > 0
	})

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	served := 0
	for i, ch := range chans {
		select {
		case r := <-ch:
			if !r.Missed {
				served++
				if r.Subset.Size() == 0 {
					t.Errorf("request %d served without a subset", i)
				}
			}
		default:
			t.Fatalf("request %d unresolved after Drain returned", i)
		}
	}
	if served == 0 {
		t.Error("drain finished no committed work")
	}
	st := s.Stats()
	if !st.Draining {
		t.Error("Stats().Draining = false after Drain")
	}
	if st.InFlight != 0 || st.Buffered != 0 {
		t.Errorf("post-drain backlog: buffered=%d inflight=%d", st.Buffered, st.InFlight)
	}
	// Submits after drain resolve immediately as rejected.
	select {
	case r := <-s.Submit(a.Serve[0], time.Second):
		if !r.Rejected {
			t.Error("post-drain Submit not rejected")
		}
	case <-time.After(time.Second):
		t.Fatal("post-drain Submit never resolved")
	}
	s.Stop() // idempotent after Drain
}

// TestServeDrainNotStarted covers the error path.
func TestServeDrainNotStarted(t *testing.T) {
	a := artifacts(t)
	s := newServer(t, a)
	if err := s.Drain(context.Background()); err != ErrNotStarted {
		t.Fatalf("Drain before Start = %v, want ErrNotStarted", err)
	}
}

// TestServeStatsSnapshot checks the counter identities on a quiet run.
func TestServeStatsSnapshot(t *testing.T) {
	a := artifacts(t)
	s := newServer(t, a)
	s.Start(context.Background())
	defer s.Stop()

	const n = 5
	for i := 0; i < n; i++ {
		<-s.Submit(a.Serve[i], time.Second)
	}
	st := s.Stats()
	if st.Submitted != n || st.Resolved != n {
		t.Errorf("submitted=%d resolved=%d, want %d/%d", st.Submitted, st.Resolved, n, n)
	}
	if st.Served+st.Degraded+st.Missed+st.Rejected != st.Resolved {
		t.Errorf("counter identity broken: %+v", st)
	}
	if len(st.QueueDepth) != a.Ensemble.M() {
		t.Errorf("QueueDepth has %d entries, want %d", len(st.QueueDepth), a.Ensemble.M())
	}
	if st.Draining {
		t.Error("Draining true on a running server")
	}
}

// TestServeSubmitRacesStart exercises the Submit-vs-Start publication path
// under -race: Submit must either panic cleanly (not started) or work.
func TestServeSubmitRacesStart(t *testing.T) {
	a := artifacts(t)
	s := newServer(t, a)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() { recover() }() // "Submit before Start" is acceptable
		<-s.Submit(a.Serve[0], time.Second)
	}()
	s.Start(context.Background())
	wg.Wait()
	s.Stop()
}

// heldEstimator holds every score until the test releases it, saying when
// one has begun.
type heldEstimator struct{ entered, release chan struct{} }

func (h *heldEstimator) Predict(*dataset.Sample) float64 {
	h.entered <- struct{}{}
	<-h.release
	return 0.5
}

// TestSubmitScoredAcrossStop holds a Submit in its score, past its lifecycle
// check, while Stop runs to the end. The coordinator is gone when the score
// comes back, so the request is not sent: it must already be resolved, as a
// rejection, when Submit returns, and resolved once.
func TestSubmitScoredAcrossStop(t *testing.T) {
	a := artifacts(t)
	est := &heldEstimator{entered: make(chan struct{}), release: make(chan struct{})}
	cfg := baseConfig(a)
	cfg.Estimator = est
	s := New(cfg)
	s.Start(context.Background())
	submitted := make(chan (<-chan Result), 1)
	go func() { submitted <- s.Submit(a.Serve[0], time.Second) }()
	select {
	case <-est.entered:
	case <-time.After(rigWait):
		t.Fatal("Submit never scored its request")
	}
	s.Stop()
	close(est.release)
	var ch <-chan Result
	select {
	case ch = <-submitted:
	case <-time.After(rigWait):
		t.Fatal("Submit never returned")
	}
	select {
	case res := <-ch:
		if !res.Rejected || !res.Missed {
			t.Errorf("%+v for a request scored across Stop, want a rejection", res)
		}
	default:
		t.Fatal("the request was stranded: unresolved when Submit returned after Stop")
	}
	assertNoSecondResult(t, 0, ch)
	if st := s.Stats(); st.Submitted != 1 || st.Rejected != 1 {
		t.Errorf("submitted %d, rejected %d, want 1 and 1", st.Submitted, st.Rejected)
	}
}

// TestEarlyTaskResolvesOnceOnStopAndDrain: Stop, and Drain, with a buffered
// request's early task running resolve that request exactly once, as a
// miss, and leave no goroutine behind; Drain still finishes what committed.
func TestEarlyTaskResolvesOnceOnStopAndDrain(t *testing.T) {
	baseline := runtime.NumGoroutine()
	t.Run("stop", func(t *testing.T) {
		rig := earlyRig(t)
		rig.shutdown()
		for i := range rig.results {
			if res := rig.result(t, i); !res.Missed {
				t.Errorf("request %d: %+v after Stop, want a miss", i, res)
			}
			assertNoSecondResult(t, i, rig.results[i])
		}
	})
	t.Run("drain", func(t *testing.T) {
		rig := earlyRig(t)
		drained := make(chan error, 1)
		go func() { drained <- rig.srv.Drain(context.Background()) }()
		if res := rig.result(t, 2); !res.Missed || res.Rejected {
			t.Fatalf("the buffered request: %+v under Drain, want a miss", res)
		}
		rig.finish(t, 0)
		rig.finish(t, 1)
		rig.finish(t, 1)
		select {
		case err := <-drained:
			if err != nil {
				t.Fatalf("Drain: %v", err)
			}
		case <-time.After(rigWait):
			t.Fatal("Drain never returned")
		}
		for i := range rig.results {
			if i < 2 {
				if res := rig.result(t, i); res.Missed || res.Subset != ensemble.Full(2) {
					t.Errorf("committed request %d: %+v under Drain, want served", i, res)
				}
			}
			assertNoSecondResult(t, i, rig.results[i])
		}
		if st := rig.srv.Stats(); st.Resolved != 3 || st.Missed != 1 {
			t.Errorf("resolved %d, missed %d, want 3 and 1", st.Resolved, st.Missed)
		}
	})
	testutil.Wait(5*time.Second, func() bool { return runtime.NumGoroutine() <= baseline })
	if g := runtime.NumGoroutine(); g > baseline {
		t.Errorf("goroutine leak: %d running, baseline %d", g, baseline)
	}
}
