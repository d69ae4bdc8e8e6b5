package sim

import (
	"container/heap"
	"sort"
	"testing"
	"time"

	"schemble/internal/engine"
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

func TestSortQueriesEDF(t *testing.T) {
	qs := []*engine.Query{
		{ID: 3, Deadline: 100 * time.Millisecond},
		{ID: 1, Deadline: 50 * time.Millisecond},
		{ID: 2, Deadline: 100 * time.Millisecond},
	}
	sort.Slice(qs, func(i, j int) bool { return edfBefore(qs[i], qs[j]) })
	wantIDs := []int{1, 2, 3} // earliest deadline first; ties by id
	for i, q := range qs {
		if q.ID != wantIDs[i] {
			t.Fatalf("query %d at position %d, want order %v", q.ID, i, wantIDs)
		}
	}
}
