package sim

import (
	"container/heap"
	"testing"
	"time"

	"schemble/internal/trace"
)

func TestEventHeapOrdering(t *testing.T) {
	var h eventHeap
	push := func(at time.Duration, seq int) {
		heap.Push(&h, &event{at: at, seq: seq})
	}
	push(30*time.Millisecond, 2)
	push(10*time.Millisecond, 5)
	push(30*time.Millisecond, 1) // same time, earlier seq
	push(20*time.Millisecond, 3)

	var got []int
	for h.Len() > 0 {
		got = append(got, heap.Pop(&h).(*event).seq)
	}
	want := []int{5, 3, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order %v, want %v", got, want)
		}
	}
}

// TestSortQueriesEDF: three queries ready at one instant, every one planned
// onto the whole ensemble. The pass commits them in the engine's order —
// earliest deadline first, ties to the earlier arrival — one per round of
// completions, since a commit needs an idle replica.
func TestSortQueriesEDF(t *testing.T) {
	a := artifacts(t)
	tr := &trace.Trace{Arrivals: []trace.Arrival{
		{SampleIdx: 0, At: 0, Deadline: 10 * time.Second},
		{SampleIdx: 1, At: 0, Deadline: 5 * time.Second},
		{SampleIdx: 2, At: 0, Deadline: 5 * time.Second},
	}}
	recs := Run(Config{
		Ensemble:  a.Ensemble,
		Refs:      a.Refs,
		Scorer:    a.Scorer,
		Scheduler: fullPlanScheduler{m: a.Ensemble.M()},
		Rewarder:  a.Profile,
		Estimator: a.Predictor,
		Seed:      1,
	}, tr, a.Serve)
	for _, r := range recs {
		if r.Missed {
			t.Fatalf("query %d missed", r.QueryID)
		}
	}
	if !(recs[1].Done < recs[2].Done && recs[2].Done < recs[0].Done) {
		t.Fatalf("done at %v, %v, %v: want query 1, then 2, then 0", recs[0].Done, recs[1].Done, recs[2].Done)
	}
}
