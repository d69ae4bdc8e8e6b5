// Command schemble-replay runs a serving simulation and writes the
// per-query record log (JSONL) for offline analysis with
// cmd/schemble-analyze.
//
//	schemble-replay -baseline schemble -rate 40 -n 3000 -out run.jsonl
//	schemble-replay -baseline original -trace oneday -out day.jsonl
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"schemble/internal/core"
	"schemble/internal/dataset"
	"schemble/internal/ensemble"
	"schemble/internal/metrics"
	"schemble/internal/model"
	"schemble/internal/pipeline"
	"schemble/internal/sim"
	"schemble/internal/trace"
)

func main() {
	baseline := flag.String("baseline", "schemble", "schemble | original")
	traceKind := flag.String("trace", "poisson", "poisson | oneday")
	rate := flag.Float64("rate", 40, "poisson arrival rate (q/s)")
	n := flag.Int("n", 3000, "poisson arrivals")
	deadline := flag.Duration("deadline", 150*time.Millisecond, "per-query deadline")
	out := flag.String("out", "-", "output path (- for stdout)")
	force := flag.Bool("force", false, "force processing (no rejection)")
	seed := flag.Uint64("seed", 7, "seed")
	flag.Parse()

	fmt.Fprintln(os.Stderr, "building pipeline...")
	arts := pipeline.Build(pipeline.Config{
		Dataset: dataset.TextMatching(dataset.Config{N: 4000, Seed: *seed}),
		Models:  model.TextMatchingModels(*seed),
		Seed:    *seed,
	})

	var tr *trace.Trace
	switch *traceKind {
	case "poisson":
		tr = trace.Poisson(trace.PoissonConfig{
			RatePerSec: *rate, N: *n, Samples: arts.Serve,
			Deadline: trace.ConstantDeadline(*deadline), Seed: *seed,
		})
	case "oneday":
		tr = trace.OneDay(trace.OneDayConfig{
			Samples: arts.Serve, Deadline: trace.ConstantDeadline(*deadline),
			Seed: *seed,
		})
	default:
		fmt.Fprintf(os.Stderr, "unknown trace kind %q\n", *traceKind)
		os.Exit(2)
	}

	cfg := sim.Config{
		Ensemble:     arts.Ensemble,
		Refs:         arts.Refs,
		Scorer:       arts.Scorer,
		ForceProcess: *force,
		Seed:         *seed,
	}
	switch *baseline {
	case "schemble":
		cfg.Scheduler = &core.DP{Delta: 0.01}
		cfg.Rewarder = arts.Profile
		cfg.Estimator = arts.Predictor
		cfg.ScoreDelay = arts.Predictor.InferCost
	case "original":
		full := arts.Ensemble.FullSubset()
		cfg.Select = func(*dataset.Sample) ensemble.Subset { return full }
	default:
		fmt.Fprintf(os.Stderr, "unknown baseline %q\n", *baseline)
		os.Exit(2)
	}

	fmt.Fprintf(os.Stderr, "replaying %d arrivals...\n", tr.N())
	recs := sim.Run(cfg, tr, arts.Serve)

	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	if err := metrics.WriteJSONL(w, recs); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	s := metrics.Summarize(recs)
	fmt.Fprintf(os.Stderr, "done: acc %.1f%% dmr %.1f%%\n", 100*s.Accuracy, 100*s.DMR)
}
