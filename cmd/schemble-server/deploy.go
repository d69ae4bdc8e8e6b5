package main

import (
	"bytes"
	_ "embed" // deploySnapshot
	"errors"
	"fmt"
	"io/fs"
	"os"
	"time"

	"schemble/internal/dataset"
	"schemble/internal/model"
	"schemble/internal/pipeline"
)

// deploySnapshot is the pipeline.Save of deployConfig(defaultSeed, false),
// the deployment a start without flags serves. `make snapshot` rewrites it
// and TestDeploySnapshotCurrent fails once a fresh fit no longer saves to
// these bytes, so restoring it answers exactly as fitting would.
//
//go:embed deploy.snapshot
var deploySnapshot []byte

// defaultSeed is -seed's default, the seed deploySnapshot was fitted at.
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

// loadPipeline returns cfg's fitted pipeline and says on stderr where it
// came from and how long that took. With a snapshot path it restores that
// file, or fits and writes it when the file is missing or does not fit cfg;
// without one it restores the embedded snapshot, or fits when pipeline.Load
// rejects that for cfg (-quick, another -seed, a stale snapshot).
func loadPipeline(cfg pipeline.Config, snapshot string) *pipeline.Artifacts {
	start := time.Now()
	var err error
	var arts *pipeline.Artifacts
	if snapshot != "" {
		arts, err = pipeline.LoadFile(cfg, snapshot)
		switch {
		case err == nil:
			fmt.Fprintf(os.Stderr, "restored fitted pipeline from %s in %.3fs\n",
				snapshot, time.Since(start).Seconds())
			return arts
		case !errors.Is(err, fs.ErrNotExist):
			// A first start has no file yet; a file that is there but does
			// not fit this deployment is about to be overwritten.
			fmt.Fprintf(os.Stderr, "snapshot %s rejected, refitting: %v\n", snapshot, err)
		}
	} else {
		arts, err = pipeline.Load(cfg, bytes.NewReader(deploySnapshot))
		if err == nil {
			fmt.Fprintf(os.Stderr, "restored fitted pipeline from the embedded snapshot in %.3fs\n",
				time.Since(start).Seconds())
			return arts
		}
		fmt.Fprintf(os.Stderr, "embedded snapshot does not fit this deployment, fitting: %v\n", err)
	}
	fmt.Fprintln(os.Stderr, "fitting pipeline (profiling + predictor training)...")
	fitStart := time.Now()
	arts = pipeline.Build(cfg)
	fmt.Fprintf(os.Stderr, "fitted pipeline in %.2fs\n", time.Since(fitStart).Seconds())
	if snapshot != "" {
		if err := arts.SaveFile(snapshot); err != nil {
			fmt.Fprintf(os.Stderr, "warning: could not save snapshot: %v\n", err)
		} else {
			fmt.Fprintf(os.Stderr, "saved fitted pipeline to %s\n", snapshot)
		}
	}
	return arts
}
