//go:build ignore

// Gensnapshot fits the server's default deployment and writes its
// pipeline snapshot to stdout. `make snapshot` runs it to rewrite
// deploy.snapshot, the fit the server embeds:
//
//	go run cmd/schemble-server/gensnapshot.go cmd/schemble-server/deploy.go > deploy.snapshot
package main

import (
	"bufio"
	"fmt"
	"os"

	"schemble/internal/pipeline"
)

func main() {
	w := bufio.NewWriter(os.Stdout)
	err := pipeline.Build(deployConfig(defaultSeed, false)).Save(w)
	if err == nil {
		err = w.Flush()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gensnapshot:", err)
		os.Exit(1)
	}
}
