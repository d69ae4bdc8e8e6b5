// Command schemble-bench runs one of the repository's soaks and writes its
// BENCH_<scenario>.json trajectory file: dp (scheduler and cold-start
// micro-benchmarks), overload (the classed stack at 1x/2x/5x of
// capacity), cache (the result cache under Zipf popularity) or drift
// (online adaptation under a latency ramp and a difficulty shift). Each
// scenario's file says what it measures and gates. The overload, cache and
// drift soaks replay their traces on the shipped runtime and deployment in
// virtual time (serve.Replay): one run per seed, under a second each.
//
// Usage:
//
//	schemble-bench [-scenario dp|overload|cache|drift]
//	               [-out BENCH_<scenario>.json] [-baseline FILE] [-seed 7]
//
// -out - writes the report to stdout, and progress goes to stderr.
// -baseline adds the regression gates against an earlier report of the same
// scenario. A named baseline that cannot be read or parsed, or is another
// scenario's, fails the run before it measures anything; it is read before
// -out is written, so both may name the same file. A failed gate still
// writes the report, then exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"schemble/internal/core"
	"schemble/internal/dataset"
	"schemble/internal/engine"
	"schemble/internal/model"
	"schemble/internal/pipeline"
	"schemble/internal/serve"
	"schemble/internal/trace"
)

// header opens every report: the schema names the scenario and its
// version, so a baseline of another scenario is refused.
type header struct {
	Schema string `json:"schema"`
	Go     string `json:"go"`
}

func newHeader(schema string) header {
	return header{Schema: schema, Go: runtime.Version()}
}

func main() {
	name := flag.String("scenario", "dp", "soak to run: dp, overload, cache or drift")
	out := flag.String("out", "", "output file (default BENCH_<scenario>.json; - for stdout)")
	baselinePath := flag.String("baseline", "", "earlier report of the same scenario to gate regressions against")
	seed := flag.Uint64("seed", 7, "seed of the soak (dp's micro-benchmarks use fixed instances)")
	flag.Parse()

	rep, failures, err := scenario(*name, *seed, *baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "schemble-bench: %v\n", err)
		os.Exit(1)
	}
	path := *out
	if path == "" {
		path = "BENCH_" + *name + ".json"
	}
	if err := writeReport(path, rep); err != nil {
		fmt.Fprintf(os.Stderr, "schemble-bench: %v\n", err)
		os.Exit(1)
	}
	for _, f := range failures {
		fmt.Fprintln(os.Stderr, "FAIL: "+f)
	}
	if len(failures) > 0 {
		os.Exit(1)
	}
}

// scenario runs the named soak through soak.
func scenario(name string, seed uint64, baselinePath string) (any, []string, error) {
	switch name {
	case "dp":
		return soak(seed, baselinePath, schemaDP, runDP, gateDP)
	case "overload":
		return soak(seed, baselinePath, schemaOverload, runOverload, gateOverload)
	case "cache":
		return soak(seed, baselinePath, schemaCache, runCache, gateCache)
	case "drift":
		return soak(seed, baselinePath, schemaDrift, runDrift, gateDrift)
	}
	return nil, nil, fmt.Errorf("unknown -scenario %q (want dp, overload, cache or drift)", name)
}

// soak reads the baseline, runs the scenario and returns its report with
// the gate's failures. The baseline fails closed: named but unreadable,
// unparsable or of another schema is an error, and nothing runs.
func soak[R any](seed uint64, baselinePath, schema string,
	run func(seed uint64) (R, error), gate func(rep R, base *R) []string) (R, []string, error) {
	var rep R
	base, err := readBaseline[R](baselinePath, schema)
	if err != nil {
		return rep, nil, err
	}
	if rep, err = run(seed); err != nil {
		return rep, nil, err
	}
	return rep, gate(rep, base), nil
}

// readBaseline returns nil when path is empty.
func readBaseline[R any](path, schema string) (*R, error) {
	if path == "" {
		return nil, nil
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read baseline: %w", err)
	}
	var h header
	if err := json.Unmarshal(raw, &h); err != nil {
		return nil, fmt.Errorf("parse baseline %s: %w", path, err)
	}
	if h.Schema != schema {
		return nil, fmt.Errorf("baseline %s has schema %q, want %q", path, h.Schema, schema)
	}
	base := new(R)
	if err := json.Unmarshal(raw, base); err != nil {
		return nil, fmt.Errorf("parse baseline %s: %w", path, err)
	}
	return base, nil
}

// writeReport writes rep as indented JSON to path, or to stdout for "-".
func writeReport(path string, rep any) error {
	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(enc)
		return err
	}
	if err := os.WriteFile(path, enc, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	return nil
}

// deployment is what every replayed soak starts from: the shipped
// text-matching deployment, the soak horizon and the bottleneck capacity.
type deployment struct {
	arts    *pipeline.Artifacts
	horizon time.Duration
	// capacity is the bottleneck service rate with one replica per model,
	// the admission controller's own default; offered loads are multiples
	// of it.
	capacity float64
}

// fit builds the deployment: N 4000 (at seed 7 the fit pipeline.Build
// restores) and a 120 s horizon.
func fit(seed uint64) deployment {
	fmt.Fprintln(os.Stderr, "building pipeline...")
	arts := pipeline.Build(pipeline.Config{
		Dataset: dataset.TextMatching(dataset.Config{N: 4000, Seed: seed}),
		Models:  model.TextMatchingModels(seed),
		Seed:    seed,
	})
	return deployment{
		arts:     arts,
		horizon:  120 * time.Second,
		capacity: engine.BottleneckCapacity(arts.Ensemble.Models, nil),
	}
}

// serveConfig is the runtime every soak replays on: DP(0.01) planning on
// predicted scores, at TimeScale 1. Each call gets its own planner.
func (d deployment) serveConfig() serve.Config {
	return serve.Config{
		Ensemble:  d.arts.Ensemble,
		Scheduler: &core.DP{Delta: 0.01},
		Rewarder:  d.arts.Profile,
		Estimator: d.arts.Predictor,
		TimeScale: 1,
		Seed:      d.arts.Seed,
	}
}

// run is one replay's outcome aggregates.
type run struct {
	// ServedPerSec counts in-deadline completions per virtual second
	// (cached answers included: a hit is a served query).
	ServedPerSec float64 `json:"served_per_sec"`
	DMR          float64 `json:"dmr"`
	Accuracy     float64 `json:"accuracy"`
	Missed       int     `json:"missed"`
	Rejected     int     `json:"rejected"`
	CachedCount  int     `json:"cached,omitempty"`
}

// summarize scores tr's results against the full ensemble's outputs.
func (d deployment) summarize(tr *trace.Trace, results []serve.Result) run {
	var r run
	agreement := 0.0
	for i, res := range results {
		switch {
		case res.Rejected:
			r.Rejected++
		case res.Missed:
			r.Missed++
		default:
			agreement += d.arts.Scorer.Score(res.Output, d.arts.Refs[d.arts.Serve[tr.Arrivals[i].SampleIdx].ID])
		}
		if res.Cached {
			r.CachedCount++
		}
	}
	n := float64(len(results))
	r.ServedPerSec = (n - float64(r.Missed+r.Rejected)) / d.horizon.Seconds()
	r.DMR = float64(r.Missed) / n
	r.Accuracy = agreement / n
	return r
}
