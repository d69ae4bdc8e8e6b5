// Command schemble-bench runs one of the repository's soaks and writes its
// BENCH_<scenario>.json trajectory file: dp (scheduler micro-benchmarks
// plus a serve-runtime soak), overload (the classed stack at 1x/2x/5x of
// capacity), cache (the result cache under Zipf popularity) or drift
// (online adaptation under a latency ramp and a difficulty shift). Each
// scenario's file says what it measures and gates.
//
// Usage:
//
//	schemble-bench [-scenario dp|overload|cache|drift] [-quick]
//	               [-out BENCH_<scenario>.json] [-baseline FILE] [-seed 7]
//
// -quick shrinks the fit and the soak for CI; -out - writes the report to
// stdout, and progress goes to stderr. -baseline adds the regression gates
// against an earlier report of the same scenario. A named baseline that
// cannot be read or parsed, or is another scenario's, fails the run before
// it measures anything; it is read before -out is written, so both may
// name the same file. A failed gate still writes the report, then exits 1.
// The simulator scenarios are deterministic per seed.
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
	"schemble/internal/metrics"
	"schemble/internal/model"
	"schemble/internal/pipeline"
	"schemble/internal/sim"
)

// options are the flags every scenario sees.
type options struct {
	quick bool
	seed  uint64
}

// header opens every report: the schema names the scenario and its
// version, so a baseline of another scenario is refused.
type header struct {
	Schema string `json:"schema"`
	Go     string `json:"go"`
	Quick  bool   `json:"quick"`
}

func newHeader(schema string, o options) header {
	return header{Schema: schema, Go: runtime.Version(), Quick: o.quick}
}

func main() {
	name := flag.String("scenario", "dp", "soak to run: dp, overload, cache or drift")
	quick := flag.Bool("quick", false, "shrink the pipeline fit and the soak (CI mode)")
	out := flag.String("out", "", "output file (default BENCH_<scenario>.json; - for stdout)")
	baselinePath := flag.String("baseline", "", "earlier report of the same scenario to gate regressions against")
	seed := flag.Uint64("seed", 7, "seed of the soak (dp's micro-benchmarks use fixed instances)")
	flag.Parse()

	rep, failures, err := scenario(*name, options{quick: *quick, seed: *seed}, *baselinePath)
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
func scenario(name string, o options, baselinePath string) (any, []string, error) {
	switch name {
	case "dp":
		return soak(o, baselinePath, schemaDP, runDP, gateDP)
	case "overload":
		return soak(o, baselinePath, schemaOverload, runOverload, gateOverload)
	case "cache":
		return soak(o, baselinePath, schemaCache, runCache, gateCache)
	case "drift":
		return soak(o, baselinePath, schemaDrift, runDrift, gateDrift)
	}
	return nil, nil, fmt.Errorf("unknown -scenario %q (want dp, overload, cache or drift)", name)
}

// soak reads the baseline, runs the scenario and returns its report with
// the gate's failures. The baseline fails closed: named but unreadable,
// unparsable or of another schema is an error, and nothing runs.
func soak[R any](o options, baselinePath, schema string,
	run func(options) (R, error), gate func(rep R, base *R) []string) (R, []string, error) {
	var rep R
	base, err := readBaseline[R](baselinePath, schema)
	if err != nil {
		return rep, nil, err
	}
	if rep, err = run(o); err != nil {
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

// deployment is what every simulator scenario starts from: the fitted
// text-matching pipeline, the soak horizon and the bottleneck capacity.
type deployment struct {
	arts    *pipeline.Artifacts
	horizon time.Duration
	// capacity is the bottleneck service rate with one replica per model,
	// the admission controller's own default; offered loads are multiples
	// of it.
	capacity float64
}

// fit builds the deployment: N 4000 and a 120 s horizon, or under -quick
// N 1200, 25 predictor epochs and 30 s.
func fit(o options) deployment {
	n, epochs, horizon := 4000, 0, 120*time.Second
	if o.quick {
		n, epochs, horizon = 1200, 25, 30*time.Second
	}
	fmt.Fprintln(os.Stderr, "building pipeline...")
	arts := pipeline.Build(pipeline.Config{
		Dataset:         dataset.TextMatching(dataset.Config{N: n, Seed: o.seed}),
		Models:          model.TextMatchingModels(o.seed),
		PredictorEpochs: epochs,
		Seed:            o.seed,
	})
	return deployment{
		arts:     arts,
		horizon:  horizon,
		capacity: engine.BottleneckCapacity(arts.Ensemble.Models, nil),
	}
}

// simConfig is the buffered-mode simulator every soak runs: DP(0.01)
// planning on predicted scores, charged the predictor's inference time.
// Each call gets its own planner.
func (d deployment) simConfig() sim.Config {
	return sim.Config{
		Ensemble:   d.arts.Ensemble,
		Refs:       d.arts.Refs,
		Scorer:     d.arts.Scorer,
		Scheduler:  &core.DP{Delta: 0.01},
		Rewarder:   d.arts.Profile,
		Estimator:  d.arts.Predictor,
		ScoreDelay: d.arts.Predictor.InferCost,
		Seed:       d.arts.Seed,
	}
}

// run is one simulator pass's outcome aggregates.
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

func (d deployment) summarize(recs []metrics.Record) run {
	s := metrics.Summarize(recs)
	cached := 0
	for _, r := range recs {
		if r.Cached {
			cached++
		}
	}
	return run{
		ServedPerSec: float64(s.N-s.Missed-s.Rejected) / d.horizon.Seconds(),
		DMR:          s.DMR,
		Accuracy:     s.Accuracy,
		Missed:       s.Missed,
		Rejected:     s.Rejected,
		CachedCount:  cached,
	}
}
