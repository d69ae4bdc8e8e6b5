package main

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"time"

	"schemble/internal/dataset"
	"schemble/internal/model"
	"schemble/internal/pipeline"
)

// defaultSeed is -seed's default. With it and without -quick the server
// serves the deployment pipeline.Build restores rather than fits.
const defaultSeed = 7

// deployConfig is the deployment the server fits for a seed: text matching
// over 4000 samples, or a shrunken fit with -quick.
func deployConfig(seed uint64, quick bool) pipeline.Config {
	cfg := pipeline.Config{
		Dataset: dataset.TextMatching(dataset.Config{N: 4000, Seed: seed}),
		Models:  model.TextMatchingModels(seed),
		Seed:    seed,
	}
	if quick {
		cfg.Dataset = dataset.TextMatching(dataset.Config{N: 1200, Seed: seed})
		cfg.PredictorEpochs = 25
	}
	return cfg
}

// loadPipeline returns cfg's fitted pipeline and says on stderr how long
// that took. pipeline.Build restores the default deployment's shipped fit
// and fits any other. With a snapshot path it restores that file instead,
// or builds and writes it when the file is missing or does not fit cfg.
func loadPipeline(cfg pipeline.Config, snapshot string) *pipeline.Artifacts {
	start := time.Now()
	if snapshot != "" {
		arts, err := pipeline.LoadFile(cfg, snapshot)
		if err == nil {
			fmt.Fprintf(os.Stderr, "restored fitted pipeline from %s in %.3fs\n",
				snapshot, time.Since(start).Seconds())
			return arts
		}
		// A first start has no file yet; a file that is there but does not
		// fit this deployment is about to be overwritten.
		if !errors.Is(err, fs.ErrNotExist) {
			fmt.Fprintf(os.Stderr, "snapshot %s rejected, refitting: %v\n", snapshot, err)
		}
	}
	arts := pipeline.Build(cfg)
	fmt.Fprintf(os.Stderr, "built pipeline in %.3fs\n", time.Since(start).Seconds())
	if snapshot != "" {
		if err := arts.SaveFile(snapshot); err != nil {
			fmt.Fprintf(os.Stderr, "warning: could not save snapshot: %v\n", err)
		} else {
			fmt.Fprintf(os.Stderr, "saved fitted pipeline to %s\n", snapshot)
		}
	}
	return arts
}
