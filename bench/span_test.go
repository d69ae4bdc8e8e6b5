package main

import "testing"

// A span's self time is its duration minus what its children cover;
// overlapping children are counted once and a child's overhang is clipped.
func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{kind: spRequest, sub: -1, req: 0, parent: -1, start: 0, end: 1000},
		{kind: spSubmit, sub: -1, req: 0, parent: -1, start: 100, end: 300},
		{kind: spScore, sub: -1, req: 0, parent: -1, start: 120, end: 200},
		{kind: spKey, sub: -1, req: 0, parent: -1, start: 180, end: 260}, // overlaps the score span
		{kind: spExec, sub: 0, req: 0, parent: -1, start: 400, end: 700},
		{kind: spExec, sub: 1, req: 0, parent: -1, start: 400, end: 1100}, // outlives the request
		{kind: spModelPredict, sub: 0, req: 0, parent: -1, start: 690, end: 700},
		{kind: spModelPredict, sub: 1, req: 0, parent: -1, start: 1090, end: 1100},
		{kind: spSchedule, sub: -1, req: noRequest, parent: -1, start: 310, end: 390},
		{kind: spRequest, sub: -1, req: 1, parent: -1, start: 0, end: 50}, // another request, no children
	}
	linkSpans(spans)
	wantParent := []int32{-1, 0, 1, 1, 0, 0, 4, 5, -1, -1}
	for i, s := range spans {
		if s.parent != wantParent[i] {
			t.Errorf("span %d (%s): parent %d, want %d", i, spanNames[s.kind], s.parent, wantParent[i])
		}
	}
	self := selfTimes(spans)
	want := []int64{
		1000 - 200 - 600, // submit covers 200; the two exec spans cover 400..1000 once
		200 - 140,        // score and key together cover 120..260
		80, 80,
		300 - 10,
		700 - 10,
		10, 10,
		80,
		50,
	}
	for i := range spans {
		if self[i] != want[i] {
			t.Errorf("span %d (%s): self %d, want %d", i, spanNames[spans[i].kind], self[i], want[i])
		}
	}
}

// Over HTTP serve.submit is not visible, so the predictor's span climbs to
// the handler's.
func TestSpanParentClimbsPastMissingKind(t *testing.T) {
	spans := []span{
		{kind: spRequest, sub: -1, req: 3, parent: -1, start: 0, end: 100},
		{kind: spHandle, sub: -1, req: 3, parent: -1, start: 10, end: 90},
		{kind: spScore, sub: -1, req: 3, parent: -1, start: 20, end: 30},
	}
	linkSpans(spans)
	if spans[2].parent != 1 || spans[1].parent != 0 {
		t.Errorf("parents = %d, %d; want 1, 0", spans[2].parent, spans[1].parent)
	}
}
