package serve

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"schemble/internal/core"
	"schemble/internal/dataset"
	"schemble/internal/ensemble"
	"schemble/internal/mathx"
	"schemble/internal/model"
	"schemble/internal/pipeline"
	"schemble/internal/trace"
)

var (
	artOnce sync.Once
	art     *pipeline.Artifacts
)

func artifacts(t *testing.T) *pipeline.Artifacts {
	t.Helper()
	artOnce.Do(func() {
		ds := dataset.TextMatching(dataset.Config{N: 1200, Seed: 55})
		art = pipeline.Build(pipeline.Config{
			Dataset: ds, Models: model.TextMatchingModels(55),
			PredictorEpochs: 25, Seed: 55,
		})
	})
	return art
}

// baseConfig is what newServer builds: the fitted pipeline under the DP,
// every other field at its zero value.
func baseConfig(a *pipeline.Artifacts) Config {
	return Config{
		Ensemble:  a.Ensemble,
		Scheduler: &core.DP{Delta: 0.01},
		Rewarder:  a.Profile,
		Estimator: a.Predictor,
		TimeScale: 0.1, // 10x faster than "real" model latencies
		Seed:      1,
	}
}

func newServer(t *testing.T, a *pipeline.Artifacts) *Server {
	t.Helper()
	return New(baseConfig(a))
}

// twins submits the same n requests, one at a time, to two servers — the
// zero-config one and one built with tweak — and fails unless every request
// gets the same outcome, subset and bit-identical output from both. It
// returns the pair, stopped, for what the test checks of them.
func twins(t *testing.T, a *pipeline.Artifacts, n int, tweak func(*Config)) (plain, twin *Server) {
	t.Helper()
	cfg := baseConfig(a)
	plain = New(cfg)
	tweak(&cfg)
	twin = New(cfg)
	for _, s := range []*Server{plain, twin} {
		s.Start(context.Background())
		defer s.Stop()
	}
	for i := 0; i < n; i++ {
		rp, rt := <-plain.Submit(a.Serve[i], time.Second), <-twin.Submit(a.Serve[i], time.Second)
		if rp.Missed || rt.Missed || rp.Subset != rt.Subset || rp.Degraded != rt.Degraded ||
			rp.Cached != rt.Cached || !reflect.DeepEqual(rp.Output, rt.Output) {
			t.Fatalf("request %d diverged between twins: %+v vs %+v", i, rp, rt)
		}
	}
	return plain, twin
}

// spaced is a trace of n queries, one every spacing from 0, each with the
// same deadline budget.
func spaced(n int, spacing, budget time.Duration) *trace.Trace {
	tr := &trace.Trace{}
	for i := 0; i < n; i++ {
		at := time.Duration(i) * spacing
		tr.Arrivals = append(tr.Arrivals, trace.Arrival{SampleIdx: i, At: at, Deadline: at + budget})
	}
	return tr
}

func TestServeLightLoad(t *testing.T) {
	a := artifacts(t)
	const n = 40
	missed, agree := 0, 0
	for i, r := range replay(t, newServer(t, a), spaced(n, 250*time.Millisecond, 600*time.Millisecond), a.Serve) {
		if r.Missed {
			missed++
		} else if mathx.ArgMax(r.Output.Probs) == mathx.ArgMax(a.Refs[a.Serve[i].ID].Probs) {
			agree++
		}
	}
	if missed > n/10 {
		t.Errorf("light load missed %d/%d", missed, n)
	}
	done := n - missed
	if done > 0 && float64(agree)/float64(done) < 0.9 {
		t.Errorf("agreement %d/%d too low", agree, done)
	}
}

// TestServeOverloadSheds submits a large burst at once with a tight
// deadline: some must miss, but every request must resolve (replay fails a
// request that does not).
func TestServeOverloadSheds(t *testing.T) {
	a := artifacts(t)
	missed := 0
	for _, r := range replay(t, newServer(t, a), spaced(120, 0, 150*time.Millisecond), a.Serve) {
		if r.Missed {
			missed++
		}
	}
	if missed == 0 {
		t.Error("a burst of 120 at once missed nothing")
	}
}

func TestServeStopResolvesInFlight(t *testing.T) {
	a := artifacts(t)
	s := newServer(t, a)
	ctx, cancel := context.WithCancel(context.Background())
	s.Start(ctx)

	ch := s.Submit(a.Serve[0], 10*time.Second)
	cancel()
	s.Stop()
	select {
	case <-ch:
		// Resolved (either served before cancel or missed on shutdown).
	case <-time.After(2 * time.Second):
		t.Fatal("request not resolved on shutdown")
	}
}

func TestServeSubsetAdaptsToBurst(t *testing.T) {
	a := artifacts(t)
	// Burst: mean executed subset size should drop below the full size.
	var sizeSum, done int
	for _, r := range replay(t, newServer(t, a), spaced(40, 0, 600*time.Millisecond), a.Serve) {
		if !r.Missed {
			sizeSum += r.Subset.Size()
			done++
		}
	}
	if done == 0 {
		t.Fatal("nothing served")
	}
	if mean := float64(sizeSum) / float64(done); mean > 2.7 {
		t.Errorf("burst mean subset size = %v, expected shedding below full ensemble", mean)
	}
}

func TestNewValidation(t *testing.T) {
	a := artifacts(t)
	defer func() {
		if recover() == nil {
			t.Error("missing scheduler did not panic")
		}
	}()
	New(Config{Ensemble: a.Ensemble})
}

func TestEnsembleSubsetRecorded(t *testing.T) {
	a := artifacts(t)
	s := newServer(t, a)
	s.Start(context.Background())
	defer s.Stop()
	r := <-s.Submit(a.Serve[0], time.Second)
	if r.Missed {
		t.Fatal("uncontended request missed")
	}
	if r.Subset == ensemble.Empty {
		t.Error("no subset recorded")
	}
	if r.Latency <= 0 {
		t.Error("no latency recorded")
	}
}
