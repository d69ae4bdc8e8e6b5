package trace

import (
	"testing"
	"time"

	"schemble/internal/dataset"
	"schemble/internal/rng"
)

// drawnDeadline is a deadline policy that consumes the generator's
// deadline sub-stream on every arrival — the maximally stream-hungry
// shape the isolation regression test swaps in.
type drawnDeadline struct{ min, max time.Duration }

func (d drawnDeadline) Relative(_ *dataset.Sample, src *rng.Source) time.Duration {
	return time.Duration(src.Uniform(float64(d.min), float64(d.max)))
}

func TestStreamDerivation(t *testing.T) {
	a1 := Stream(7, "gaps")
	a2 := Stream(7, "gaps")
	b := Stream(7, "mix")
	c := Stream(8, "gaps")
	var sameAsA, sameAsB, sameAsC int
	for i := 0; i < 64; i++ {
		v := a1.Uint64()
		if v == a2.Uint64() {
			sameAsA++
		}
		if v == b.Uint64() {
			sameAsB++
		}
		if v == c.Uint64() {
			sameAsC++
		}
	}
	if sameAsA != 64 {
		t.Fatalf("same seed+label reproduced only %d/64 draws", sameAsA)
	}
	if sameAsB != 0 {
		t.Fatalf("different labels collided on %d/64 draws", sameAsB)
	}
	if sameAsC != 0 {
		t.Fatalf("adjacent seeds collided on %d/64 draws", sameAsC)
	}
}

func shiftCfg(dl DeadlinePolicy) DifficultyShiftConfig {
	samples := pool(90)
	easy := make([]int, 30)
	hard := make([]int, 30)
	for i := range easy {
		easy[i] = i
		hard[i] = 60 + i
	}
	return DifficultyShiftConfig{
		RatePerSec: 100, N: 2000, Samples: samples,
		EasyIdx: easy, HardIdx: hard,
		ShiftStart: 5 * time.Second, ShiftEnd: 15 * time.Second,
		Deadline: dl, Seed: 11,
	}
}

// TestDifficultyShiftStreamIsolation is the stream-independence
// regression test: swapping the deadline policy for one that consumes
// random draws on every arrival must leave the arrival times and sample
// picks byte-identical, because gaps, mix, and deadlines come from
// independent labeled sub-streams. (The historical failure mode — one
// shared source — would shift every gap after the first deadline draw.)
func TestDifficultyShiftStreamIsolation(t *testing.T) {
	a := DifficultyShift(shiftCfg(ConstantDeadline(100 * time.Millisecond)))
	b := DifficultyShift(shiftCfg(drawnDeadline{min: 50 * time.Millisecond, max: 400 * time.Millisecond}))
	if a.N() != b.N() {
		t.Fatalf("arrival counts diverged: %d vs %d", a.N(), b.N())
	}
	deadlinesDiffer := false
	for i := range a.Arrivals {
		if a.Arrivals[i].At != b.Arrivals[i].At {
			t.Fatalf("arrival %d time diverged under a deadline-policy swap: %v vs %v",
				i, a.Arrivals[i].At, b.Arrivals[i].At)
		}
		if a.Arrivals[i].SampleIdx != b.Arrivals[i].SampleIdx {
			t.Fatalf("arrival %d sample pick diverged under a deadline-policy swap: %d vs %d",
				i, a.Arrivals[i].SampleIdx, b.Arrivals[i].SampleIdx)
		}
		if a.Arrivals[i].Deadline != b.Arrivals[i].Deadline {
			deadlinesDiffer = true
		}
	}
	if !deadlinesDiffer {
		t.Fatal("deadline policies produced identical deadlines; the swap tested nothing")
	}
}

func TestDifficultyShiftMixShift(t *testing.T) {
	cfg := shiftCfg(ConstantDeadline(100 * time.Millisecond))
	tr := DifficultyShift(cfg)
	isHard := func(idx int) bool { return idx >= 60 }
	for _, a := range tr.Arrivals {
		if a.At <= cfg.ShiftStart && isHard(a.SampleIdx) {
			t.Fatalf("hard sample %d arrived at %v, before the shift starts", a.SampleIdx, a.At)
		}
		if a.At >= cfg.ShiftEnd && !isHard(a.SampleIdx) {
			t.Fatalf("easy sample %d arrived at %v, after the shift completes", a.SampleIdx, a.At)
		}
	}
	// Determinism: same config, same trace.
	tr2 := DifficultyShift(cfg)
	for i := range tr.Arrivals {
		if tr.Arrivals[i] != tr2.Arrivals[i] {
			t.Fatalf("arrival %d not deterministic: %+v vs %+v", i, tr.Arrivals[i], tr2.Arrivals[i])
		}
	}
}

func TestDifficultyShiftPanics(t *testing.T) {
	bad := []func(*DifficultyShiftConfig){
		func(c *DifficultyShiftConfig) { c.RatePerSec = 0 },
		func(c *DifficultyShiftConfig) { c.N = 0 },
		func(c *DifficultyShiftConfig) { c.EasyIdx = nil },
		func(c *DifficultyShiftConfig) { c.HardIdx = nil },
		func(c *DifficultyShiftConfig) { c.Samples = nil },
	}
	for i, mutate := range bad {
		cfg := shiftCfg(ConstantDeadline(time.Second))
		mutate(&cfg)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bad config %d did not panic", i)
				}
			}()
			DifficultyShift(cfg)
		}()
	}
}
