//go:build ignore

// Gensnapshot fits the shipped deployment (text matching, N 4000, seed 7,
// every other setting at its default) with pipeline.Fit, which never
// restores, and writes its snapshot to stdout. `make snapshot` runs it to
// rewrite shipped.snapshot, the fit pipeline.Build restores:
//
//	go run internal/pipeline/gensnapshot.go > shipped.snapshot
package main

import (
	"bufio"
	"fmt"
	"os"

	"schemble/internal/dataset"
	"schemble/internal/model"
	"schemble/internal/pipeline"
)

func main() {
	w := bufio.NewWriter(os.Stdout)
	err := pipeline.Fit(pipeline.Config{
		Dataset: dataset.TextMatching(dataset.Config{N: 4000, Seed: 7}),
		Models:  model.TextMatchingModels(7),
		Seed:    7,
	}).Save(w)
	if err == nil {
		err = w.Flush()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gensnapshot:", err)
		os.Exit(1)
	}
}
