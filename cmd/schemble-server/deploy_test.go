package main

import (
	"bytes"
	"testing"

	"schemble/internal/pipeline"
)

// TestDeploySnapshotCurrent fits the default deployment and fails unless
// it saves to exactly the embedded bytes: the binary restores that
// snapshot instead of fitting, so it must be the fit it stands for.
func TestDeploySnapshotCurrent(t *testing.T) {
	var fresh bytes.Buffer
	if err := pipeline.Build(deployConfig(defaultSeed, false)).Save(&fresh); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(fresh.Bytes(), deploySnapshot) {
		return
	}
	at := 0
	for at < min(fresh.Len(), len(deploySnapshot)) && fresh.Bytes()[at] == deploySnapshot[at] {
		at++
	}
	t.Fatalf("cmd/schemble-server/deploy.snapshot is stale: a fresh fit of the default "+
		"deployment saves %d bytes, the embedded snapshot has %d, first difference at byte %d; "+
		"regenerate it with `make snapshot`", fresh.Len(), len(deploySnapshot), at)
}

// TestEmbeddedSnapshotFitsOnlyTheDefault checks that pipeline.Load alone
// decides when the embedded snapshot is used: it restores the default
// deployment and rejects the -quick fit and other seeds, which then fit.
func TestEmbeddedSnapshotFitsOnlyTheDefault(t *testing.T) {
	if _, err := pipeline.Load(deployConfig(defaultSeed, false), bytes.NewReader(deploySnapshot)); err != nil {
		t.Fatalf("default deployment rejects the embedded snapshot: %v", err)
	}
	for _, c := range []struct {
		name  string
		seed  uint64
		quick bool
	}{{"-quick", defaultSeed, true}, {"-seed 8", 8, false}} {
		if _, err := pipeline.Load(deployConfig(c.seed, c.quick), bytes.NewReader(deploySnapshot)); err == nil {
			t.Errorf("%s restored the default deployment's snapshot", c.name)
		}
	}
}
