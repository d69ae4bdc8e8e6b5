package main

import (
	"encoding/json"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json. Unknown keys are an error: the
// driver refuses a file with any key beyond these.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var b benchmarkFile
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// Every name in BENCHMARK.json is well-formed, unique, and is a metric or
// workload the harness defines with the same unit, direction and bound;
// and the harness defines nothing the file leaves out.
func TestBenchmarkFileMatchesHarness(t *testing.T) {
	b := readBenchmarkFile(t)
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is malformed", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the harness %d", len(b.Workloads), len(workloads))
	}
	for _, bw := range b.Workloads {
		name(bw.Name)
		w := findWorkload(bw.Name)
		if w == nil {
			t.Errorf("workload %q is not one the harness runs", bw.Name)
			continue
		}
		if bw.Why != w.why {
			t.Errorf("workload %q: why differs from the harness's", bw.Name)
		}
		if len(bw.Why) > 200 || strings.Contains(bw.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters, has %d", bw.Name, len(bw.Why))
		}
	}

	if len(b.EndToEnd) != len(endToEnd) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, the harness %d", len(b.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, m := range b.EndToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is malformed", m.Name, m.Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g is outside (0, 0.25]", m.Name, m.Bound)
		}
		if i < len(endToEnd) {
			if d := endToEnd[i]; d.name != m.Name || d.unit != m.Unit || d.better != m.Better || d.bound != m.Bound {
				t.Errorf("end_to_end[%d] = %+v, the harness has %+v", i, m, d)
			}
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}

	if len(b.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, the harness %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is malformed", m.Name, m.Unit)
		}
		if i < len(perLayer) {
			if d := perLayer[i]; d.name != m.Name || d.unit != m.Unit || d.better != m.Better {
				t.Errorf("per_layer[%d] = %+v, the harness has %+v", i, m, d)
			}
		}
	}

	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", b.RunSeconds)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", b.Paths)
	}
}

// The metric functions emit exactly the names the definitions list.
func TestEveryDefinedMetricIsEmitted(t *testing.T) {
	e2e := endToEndMetrics(samples{}, window{0, 1}, 0, usage{})
	if len(e2e) != len(endToEnd) {
		t.Errorf("endToEndMetrics emits %d metrics, %d are defined", len(e2e), len(endToEnd))
	}
	for _, d := range endToEnd {
		if _, ok := e2e[d.name]; !ok {
			t.Errorf("end-to-end metric %s is defined but not emitted", d.name)
		}
	}
	layers := layerMetrics(layerInput{probe: &probe{tr: newTracer()}, win: window{0, 1}})
	if len(layers) != len(perLayer) {
		t.Errorf("layerMetrics emits %d metrics, %d are defined", len(layers), len(perLayer))
	}
	for _, d := range perLayer {
		if _, ok := layers[d.name]; !ok {
			t.Errorf("per-layer metric %s is defined but not emitted", d.name)
		}
	}
}

// Only sut.go may import the system under test, so a change to an internal
// package has one file to break.
func TestOnlyTheAdapterImportsInternalPackages(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if f == "sut.go" {
			continue
		}
		parsed, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range parsed.Imports {
			if strings.HasPrefix(imp.Path.Value, `"schemble/`) {
				t.Errorf("%s imports %s; keep imports of the system under test in sut.go", f, imp.Path.Value)
			}
		}
	}
}
