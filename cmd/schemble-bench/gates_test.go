package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// checkGate asserts that got holds no failure when want is empty, and
// otherwise exactly one failure, containing want.
func checkGate(t *testing.T, got []string, want string) {
	t.Helper()
	switch {
	case want == "" && len(got) > 0:
		t.Fatalf("gate failed a passing report: %q", got)
	case want != "" && len(got) != 1:
		t.Fatalf("want one failure containing %q, got %q", want, got)
	case want != "" && !strings.Contains(got[0], want):
		t.Fatalf("want a failure containing %q, got %q", want, got[0])
	}
}

// overloadFixture is three tiers of three classes with sheds in priority
// order, gold SLO 0.88 at 5x and goodput 10/20/30.
func overloadFixture() overloadReport {
	var rep overloadReport
	for i, load := range []float64{1, 2, 5} {
		t := tier{Load: load, GoodputPerSec: 10 * float64(i+1)}
		for j, name := range []string{"gold", "silver", "bronze"} {
			t.Classes = append(t.Classes, classStats{
				Name: name, SLOAttainment: 1, ShedRate: 0.1 * float64(i*j),
			})
		}
		rep.Tiers = append(rep.Tiers, t)
	}
	rep.Tiers[2].Classes[0].SLOAttainment = 0.88
	return rep
}

func TestGateOverload(t *testing.T) {
	base := overloadFixture()
	cases := []struct {
		name   string
		doctor func(*overloadReport)
		base   *overloadReport
		want   string
	}{
		{name: "own report", doctor: func(*overloadReport) {}, base: &base},
		{name: "gold SLO drop 0.04", doctor: func(r *overloadReport) { r.Tiers[1].Classes[0].SLOAttainment = 0.96 }, base: &base},
		{name: "gold SLO drop 0.06", doctor: func(r *overloadReport) { r.Tiers[1].Classes[0].SLOAttainment = 0.94 },
			base: &base, want: "gold SLO attainment at 2x regressed"},
		{name: "goodput 9% below", doctor: func(r *overloadReport) { r.Tiers[2].GoodputPerSec = 27.3 }, base: &base},
		{name: "goodput 11% below", doctor: func(r *overloadReport) { r.Tiers[2].GoodputPerSec = 26.7 },
			base: &base, want: "goodput at 5x regressed"},
		{name: "shed within tolerance", doctor: func(r *overloadReport) { r.Tiers[1].Classes[1].ShedRate = 0.21 }},
		{name: "shed out of order", doctor: func(r *overloadReport) { r.Tiers[1].Classes[1].ShedRate = 0.23 },
			want: "silver shed harder"},
		{name: "gold at 5x above floor", doctor: func(r *overloadReport) { r.Tiers[2].Classes[0].SLOAttainment = 0.86 },
			base: &base},
		{name: "gold at 5x below floor", doctor: func(r *overloadReport) { r.Tiers[2].Classes[0].SLOAttainment = 0.84 },
			base: &base, want: "gold SLO attainment 0.840 at 5x below floor"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rep := overloadFixture()
			c.doctor(&rep)
			checkGate(t, gateOverload(rep, c.base), c.want)
		})
	}
}

func TestGateCache(t *testing.T) {
	base := cacheReport{HitRate: 0.5, Off: run{DMR: 0.1}, On: run{DMR: 0.1}}
	cases := []struct {
		name   string
		doctor func(*cacheReport)
		base   *cacheReport
		want   string
	}{
		{name: "own report", doctor: func(*cacheReport) {}, base: &base},
		{name: "hit rate at floor", doctor: func(r *cacheReport) { r.HitRate = minHitRate }},
		{name: "hit rate below floor", doctor: func(r *cacheReport) { r.HitRate = 0.29 }, want: "below floor"},
		{name: "DMR delta 0.01", doctor: func(r *cacheReport) { r.On.DMR = 0.11 }, base: &base},
		{name: "DMR delta 0.03", doctor: func(r *cacheReport) { r.On.DMR = 0.13 }, base: &base, want: "exceeds cache-off"},
		{name: "hit rate drop 0.09", doctor: func(r *cacheReport) { r.HitRate = 0.41 }, base: &base},
		{name: "hit rate drop 0.11", doctor: func(r *cacheReport) { r.HitRate = 0.39 }, base: &base, want: "hit rate regressed"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rep := base
			c.doctor(&rep)
			checkGate(t, gateCache(rep, c.base), c.want)
		})
	}
}

func TestGateDrift(t *testing.T) {
	base := driftReport{Frozen: run{DMR: 0.3}, Adapt: run{DMR: 0.01}}
	cases := []struct {
		name   string
		doctor func(*driftReport)
		base   *driftReport
		want   string
	}{
		{name: "own report", doctor: func(*driftReport) {}, base: &base},
		{name: "adapt equals frozen", doctor: func(r *driftReport) { r.Adapt.DMR = 0.3 }, want: "not below frozen"},
		{name: "adapt DMR rise 0.04", doctor: func(r *driftReport) { r.Adapt.DMR = 0.05 }, base: &base},
		{name: "adapt DMR rise 0.06", doctor: func(r *driftReport) { r.Adapt.DMR = 0.07 }, base: &base, want: "adapt-on DMR regressed"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rep := base
			c.doctor(&rep)
			checkGate(t, gateDrift(rep, c.base), c.want)
		})
	}
}

// TestBaselineFailsClosed runs soak with a stub scenario: a named
// baseline that is missing, corrupt or another scenario's fails the run
// before it measures anything; a good one reaches the gate.
func TestBaselineFailsClosed(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	cases := []struct {
		name    string
		path    string
		wantErr bool
		wantHit float64 // baseline hit rate the gate sees; -1 for none
	}{
		{name: "no baseline", path: "", wantHit: -1},
		{name: "good baseline", path: write("good.json", `{"schema":"schemble-cache/v1","hit_rate":0.7}`), wantHit: 0.7},
		{name: "missing", path: filepath.Join(dir, "absent.json"), wantErr: true},
		{name: "corrupt", path: write("corrupt.json", `{"schema":"schemble-cache/v1","hit_rate":`), wantErr: true},
		{name: "wrong type", path: write("type.json", `{"schema":"schemble-cache/v1","hit_rate":"high"}`), wantErr: true},
		{name: "other scenario", path: write("drift.json", `{"schema":"schemble-drift/v1"}`), wantErr: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ran := false
			runStub := func(uint64) (cacheReport, error) { ran = true; return cacheReport{}, nil }
			seen := -2.0
			gateStub := func(_ cacheReport, base *cacheReport) []string {
				seen = -1
				if base != nil {
					seen = base.HitRate
				}
				return nil
			}
			_, _, err := soak(0, c.path, schemaCache, runStub, gateStub)
			if c.wantErr {
				if err == nil || ran {
					t.Fatalf("err %v, ran %v: want an error before the run", err, ran)
				}
				return
			}
			if err != nil || !ran || seen != c.wantHit {
				t.Fatalf("err %v, ran %v, gate saw hit rate %v: want nil, true, %v", err, ran, seen, c.wantHit)
			}
		})
	}
}

// TestSoakRunErrorSkipsGate: a failed run is an error, not a gate result.
func TestSoakRunErrorSkipsGate(t *testing.T) {
	boom := errors.New("boom")
	_, fails, err := soak(0, "", schemaDrift,
		func(uint64) (driftReport, error) { return driftReport{}, boom },
		func(driftReport, *driftReport) []string { return []string{"gated"} })
	if !errors.Is(err, boom) || fails != nil {
		t.Fatalf("got %v, %q: want the run's error and no failures", err, fails)
	}
}

// TestCommittedReportsRoundTrip decodes each committed BENCH file into its
// report type and writes it back byte for byte, so the field order and
// the schema strings the baselines carry stay the types'.
func TestCommittedReportsRoundTrip(t *testing.T) {
	check := func(name, schema string, decode func(path string) (any, error)) {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join("..", "..", "BENCH_"+name+".json")
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := decode(path)
			if err != nil {
				t.Fatalf("%s as a %s baseline: %v", path, schema, err)
			}
			out := filepath.Join(t.TempDir(), "out.json")
			if err := writeReport(out, rep); err != nil {
				t.Fatal(err)
			}
			if got, _ := os.ReadFile(out); string(got) != string(want) {
				t.Fatalf("%s does not round-trip through its report type:\n%s", path, got)
			}
		})
	}
	check("overload", schemaOverload, func(p string) (any, error) { return readBaseline[overloadReport](p, schemaOverload) })
	check("cache", schemaCache, func(p string) (any, error) { return readBaseline[cacheReport](p, schemaCache) })
	check("drift", schemaDrift, func(p string) (any, error) { return readBaseline[driftReport](p, schemaDrift) })
}
