package pipeline

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"schemble/internal/dataset"
	"schemble/internal/discrepancy"
	"schemble/internal/model"
)

// seed7ScoreHash is FNV-1a over the bit patterns of Predictor's then
// EAPredictor's score on every sample (ID order) of the deployment the
// server and the repo benchmark fit: text matching, N 4000, seed 7. It was
// recorded at the commit before internal/nn's dense kernels were
// rewritten and Build's two fits overlapped; any change to what training
// computes, however small, moves it.
const seed7ScoreHash uint64 = 0xf274e169ce1fa953

// seed7Config is that deployment, the one shipped.snapshot was fitted on.
func seed7Config() Config {
	return Config{
		Dataset: dataset.TextMatching(dataset.Config{N: 4000, Seed: 7}),
		Models:  model.TextMatchingModels(7),
		Seed:    7,
	}
}

func scoreHash(a *Artifacts) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, p := range []*discrepancy.Predictor{a.Predictor, a.EAPredictor} {
		for _, s := range a.Dataset.Samples {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(p.Predict(s)))
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

func predictorBytes(t *testing.T, a *Artifacts) (pred, ea []byte) {
	t.Helper()
	pred, err := a.Predictor.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	ea, err = a.EAPredictor.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return pred, ea
}

// TestBuildIndependentOfParallelism pins that overlapping the two predictor
// fits changes nothing they compute: one processor (the fits interleave on
// it) and all of them (the fits run side by side) yield byte-equal weights,
// and those weights score the seed-7 deployment exactly as the serial
// scalar code before them did. Under -race it is also the test that the
// two fits share only data they read. It calls Fit, since Build restores
// this deployment rather than training it.
func TestBuildIndependentOfParallelism(t *testing.T) {
	build := func(procs int) *Artifacts {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		return Fit(seed7Config())
	}
	one, all := build(1), build(runtime.NumCPU())
	p1, ea1 := predictorBytes(t, one)
	pN, eaN := predictorBytes(t, all)
	if !bytes.Equal(p1, pN) {
		t.Error("Predictor weights differ between GOMAXPROCS 1 and NumCPU")
	}
	if !bytes.Equal(ea1, eaN) {
		t.Error("EAPredictor weights differ between GOMAXPROCS 1 and NumCPU")
	}
	if bytes.Equal(p1, ea1) {
		t.Error("Predictor and EAPredictor are the same network: the fits are not independent")
	}
	if got := scoreHash(all); got != seed7ScoreHash {
		t.Errorf("seed-7 predictor score hash = %#x, want %#x (trained weights changed)", got, seed7ScoreHash)
	}
}

// BenchmarkFit is the cold start of a deployment that has to fit: the
// whole fit of the shipped deployment (two predictor fits side by side
// plus profiling), which Build restores instead.
func BenchmarkFit(b *testing.B) {
	cfg := seed7Config()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Fit(cfg)
	}
}

// BenchmarkBuild is the cold start of the shipped deployment, which
// restores.
func BenchmarkBuild(b *testing.B) {
	cfg := seed7Config()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(cfg)
	}
}
