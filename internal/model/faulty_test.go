package model

import (
	"sync"
	"testing"
	"time"

	"schemble/internal/dataset"
)

func TestFaultyDisabledNeverFaults(t *testing.T) {
	f := NewFaulty(TextMatchingModels(1)[0], FaultConfig{})
	if (FaultConfig{}).Enabled() {
		t.Fatal("zero config reports Enabled")
	}
	now := time.Second
	for i := 0; i < 1000; i++ {
		if d := f.Attempt(now, 50*time.Millisecond, uint64(i)); d.Kind != FaultNone || d.LatencyFactor != 1 {
			t.Fatalf("zero config injected %+v on attempt %d", d, i)
		}
	}
	if f.Down(now) {
		t.Error("zero config model reported down")
	}
}

func TestFaultyPredictDelegates(t *testing.T) {
	base := TextMatchingModels(3)[1]
	f := NewFaulty(base, FaultConfig{TransientRate: 0.5, Seed: 11})
	s := &dataset.Sample{ID: 17, Label: 1, Difficulty: 0.4}
	a, b := f.Predict(s), base.Predict(s)
	if len(a.Probs) != len(b.Probs) {
		t.Fatalf("prob dims differ: %d vs %d", len(a.Probs), len(b.Probs))
	}
	for i := range a.Probs {
		if a.Probs[i] != b.Probs[i] {
			t.Fatalf("Faulty corrupted prediction: %v vs %v", a.Probs, b.Probs)
		}
	}
	if f.Name() != base.Name() || f.MeanLatency() != base.MeanLatency() {
		t.Error("Faulty does not delegate Model metadata")
	}
}

// chaosConfig turns on every fault mode at rates that draw each kind often.
func chaosConfig(seed uint64) FaultConfig {
	return FaultConfig{
		TransientRate: 0.3, StragglerRate: 0.2, StragglerFactor: 4,
		CrashMTBF: 500 * time.Millisecond, CrashRecovery: 40 * time.Millisecond,
		Seed: seed,
	}
}

// TestFaultyDeterministic: an attempt's decision is a function of (seed,
// key) alone. Two wrappers with one seed, asked for the same keys at one
// instant in opposite orders, decide every key alike, although some of
// those attempts crash the model; a third with another seed does not.
func TestFaultyDeterministic(t *testing.T) {
	mk := func(seed uint64) *Faulty { return NewFaulty(TextMatchingModels(2)[1], chaosConfig(seed)) }
	a, b, other := mk(42), mk(42), mk(43)
	now := time.Second
	const n = 500
	da := make([]Decision, n)
	for key := range da {
		da[key] = a.Attempt(now, 50*time.Millisecond, uint64(key))
	}
	seen := map[FaultKind]int{}
	differ := 0
	for key := n - 1; key >= 0; key-- {
		if db := b.Attempt(now, 50*time.Millisecond, uint64(key)); db != da[key] {
			t.Fatalf("key %d decided %+v forwards, %+v backwards", key, da[key], db)
		}
		if other.Attempt(now, 50*time.Millisecond, uint64(key)) != da[key] {
			differ++
		}
		seen[da[key].Kind]++
	}
	for _, k := range []FaultKind{FaultNone, FaultTransient, FaultStraggler, FaultCrash} {
		if seen[k] == 0 {
			t.Errorf("fault kind %v never drawn in %d attempts", k, n)
		}
	}
	if differ == 0 {
		t.Error("another seed drew the same decision for every key")
	}
}

// TestFaultyConcurrentAttempts: attempts at one instant from several
// goroutines at once — the replicas of a model, with the coordinator asking
// Down meanwhile — decide what each key decides on a twin asked in order,
// some of them crashing the model.
func TestFaultyConcurrentAttempts(t *testing.T) {
	mk := func() *Faulty { return NewFaulty(TextMatchingModels(2)[1], chaosConfig(42)) }
	twin, f := mk(), mk()
	now := time.Second
	const workers, per = 4, 100
	var got [workers * per]Decision
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(got); i += workers {
				got[i] = f.Attempt(now, 50*time.Millisecond, uint64(i))
				f.Down(now)
			}
		}()
	}
	wg.Wait()
	crashes := 0
	for i, d := range got {
		if want := twin.Attempt(now, 50*time.Millisecond, uint64(i)); d != want {
			t.Errorf("key %d decided %+v concurrently, %+v in order", i, d, want)
		}
		if d.Kind == FaultCrash {
			crashes++
		}
	}
	if crashes == 0 {
		t.Error("no attempt crashed the model")
	}
}

// TestFaultyAttemptAllocatesNothing: an attempt's keyed stream lives on the
// stack, so a fault draw costs the heap nothing.
func TestFaultyAttemptAllocatesNothing(t *testing.T) {
	f := NewFaulty(TextMatchingModels(2)[1], chaosConfig(42))
	now := time.Second
	key := uint64(0)
	if n := testing.AllocsPerRun(200, func() {
		key++
		f.Attempt(now, 50*time.Millisecond, key)
	}); n != 0 {
		t.Errorf("Attempt allocates %v times per call", n)
	}
}

// crashKey returns the first key whose attempt crashes f at a clamped
// p = 0.9, asking a twin of f so that f's window stays closed.
func crashKey(t *testing.T, cfg FaultConfig, from uint64) uint64 {
	t.Helper()
	probe := NewFaulty(TextMatchingModels(4)[0], cfg)
	now := time.Second
	for key := from; key < from+200; key++ {
		if probe.Attempt(now, 50*time.Millisecond, key).Kind == FaultCrash {
			return key
		}
	}
	t.Fatal("never crashed at clamped p=0.9")
	return 0
}

// TestFaultyCrashInstant: a crash takes effect for attempts that start
// after its instant. Two attempts at that instant — one that crashes the
// model and one that draws no crash — decide the same in both call orders,
// and Down is false at the instant and true just after it.
func TestFaultyCrashInstant(t *testing.T) {
	cfg := FaultConfig{CrashMTBF: 50 * time.Millisecond, TransientRate: 0.5, CrashRecovery: time.Second, Seed: 5}
	crash := crashKey(t, cfg, 0)
	// calm is a key that, on its own, draws no crash.
	calm := crash + 1
	for NewFaulty(TextMatchingModels(4)[0], cfg).Attempt(time.Second, 50*time.Millisecond, calm).Kind == FaultCrash {
		calm++
	}
	at := time.Second
	// decided[order] holds the crash key's decision, then the calm one's.
	var decided [2][2]Decision
	for order, keys := range [2][2]uint64{{crash, calm}, {calm, crash}} {
		f := NewFaulty(TextMatchingModels(4)[0], cfg)
		for _, key := range keys {
			i := 0
			if key == calm {
				i = 1
			}
			decided[order][i] = f.Attempt(at, 50*time.Millisecond, key)
		}
		if f.Down(at) {
			t.Errorf("order %d: Down at the crash instant itself", order)
		}
		if !f.Down(at + time.Nanosecond) {
			t.Errorf("order %d: not Down just after the crash instant", order)
		}
	}
	if decided[0] != decided[1] {
		t.Errorf("attempts at the crash instant decided by call order: %+v vs %+v", decided[0], decided[1])
	}
	if decided[0][0].Kind != FaultCrash || decided[0][1].Kind == FaultCrash {
		t.Errorf("decisions %+v: want the crash key to crash and the calm one not", decided[0])
	}
}

// TestFaultyCrashRecoveryWindow: after a crash, every attempt that starts
// inside the recovery window fails with FaultCrash whatever its key, and the
// window closes when the recovery time has passed.
func TestFaultyCrashRecoveryWindow(t *testing.T) {
	cfg := FaultConfig{CrashMTBF: time.Millisecond, CrashRecovery: time.Second, Seed: 7}
	key := crashKey(t, cfg, 0)
	f := NewFaulty(TextMatchingModels(4)[0], cfg)
	crashed := time.Second
	if k := f.Attempt(crashed, 50*time.Millisecond, key).Kind; k != FaultCrash {
		t.Fatalf("crash key drew %v", k)
	}
	for _, c := range []struct {
		after time.Duration
		down  bool
	}{
		{time.Nanosecond, true},
		{500 * time.Millisecond, true},
		{999 * time.Millisecond, true},
		{time.Second, false},
		{1001 * time.Millisecond, false},
	} {
		now := crashed + c.after
		if got := f.Down(now); got != c.down {
			t.Errorf("Down %v after the crash = %v, want %v", c.after, got, c.down)
		}
		if !c.down {
			continue
		}
		// Inside the window every key fails, even at a latency that could
		// never draw a crash.
		for k := uint64(0); k < 20; k++ {
			if d := f.Attempt(now, 0, key+1+k); d.Kind != FaultCrash {
				t.Errorf("attempt %v after the crash, key %d = %v, want crash", c.after, key+1+k, d.Kind)
			}
		}
	}
	// Past the window, a zero latency draws no crash.
	if d := f.Attempt(crashed+1001*time.Millisecond, 0, key); d.Kind != FaultNone {
		t.Errorf("attempt past the window = %v, want none", d.Kind)
	}
}

func TestFaultyDefaults(t *testing.T) {
	f := NewFaulty(TextMatchingModels(5)[0], FaultConfig{StragglerRate: 0.1})
	cfg := f.cfg
	if cfg.StragglerFactor != 8 {
		t.Errorf("StragglerFactor default = %v, want 8", cfg.StragglerFactor)
	}
	if cfg.CrashRecovery != 2*time.Second {
		t.Errorf("CrashRecovery default = %v, want 2s", cfg.CrashRecovery)
	}
}
