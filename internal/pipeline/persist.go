package pipeline

import (
	"bytes"
	_ "embed" // shipped
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sync"
	"time"

	"schemble/internal/calib"
	"schemble/internal/dataset"
	"schemble/internal/discrepancy"
	"schemble/internal/ensemble"
	"schemble/internal/model"
	"schemble/internal/profiling"
)

func durationOf(ns int64) time.Duration { return time.Duration(ns) }

// Fitting a pipeline costs profiling and predictor training (about a
// second for the shipped deployment on two cores, growing with samples and
// epochs); a deployment fits once and restores. Save/Load serialize the
// fitted state (scorer normalization, calibrators, reward profiles,
// predictor weights, per-sample artifacts) with encoding/gob. The dataset
// and models are reconstructed from their generator seeds, so a snapshot
// stays small and self-consistent: a restore checks the snapshot's identity
// (version, seed, dataset name, sample count, fit settings) against the
// config, then builds the scaffold (model outputs, ensemble references,
// splits), checks it against the snapshot's fingerprint of the one it was
// fitted on, and overlays the fitted state. Load restores a snapshot from
// anywhere; Build restores the one this package ships, shipped.snapshot,
// whenever its config is the deployment that snapshot was fitted on.

// shipped is the Save of Fit on the shipped deployment: text matching, N
// 4000, seed 7, every other setting at its default. `make snapshot`
// rewrites it, and TestShippedSnapshotCurrent fails once Fit no longer
// yields the state these bytes restore.
//
//go:embed shipped.snapshot
var shipped []byte

// shippedIdentity is shipped's identity, decoded once per process; an
// error leaves Build fitting every config.
var shippedIdentity = sync.OnceValues(func() (identity, error) {
	snap, err := decodeSnapshot(bytes.NewReader(shipped))
	if err != nil {
		return identity{}, err
	}
	return snap.identity(), nil
})

// restoreShipped overlays a freshly decoded copy of shipped's fitted state
// on a, cfg's scaffold, when shipped was fitted on that very deployment,
// and says whether it did. cfg has its defaults.
func restoreShipped(cfg Config, a *Artifacts) bool {
	if id, err := shippedIdentity(); err != nil || id.check(cfg) != nil {
		return false
	}
	snap, err := decodeSnapshot(bytes.NewReader(shipped))
	return err == nil && snap.overlay(a) == nil
}

// snapshotVersion guards against loading incompatible snapshots.
const snapshotVersion = 4

// snapshot is the serialized fitted state.
type snapshot struct {
	Version int
	Seed    uint64
	Task    int
	Name    string

	// Scaffold fingerprints what a restore re-derives instead of storing,
	// so a snapshot fitted on other samples, other models, another
	// aggregator or other splits is rejected rather than overlaid on
	// outputs it does not describe.
	Scaffold scaffoldPrint
	// Fit is the settings the fitted state was trained with.
	Fit fitSettings

	// Fitted state that is NOT derivable from the seed alone (training
	// involves the nn package's own RNG and iteration order, so we store
	// the results rather than re-deriving).
	Calibrators   []float64 // temperature per model (0 = none)
	NormSamples   [][]float64
	TrueScores    []float64
	EAScores      []float64
	ProfileGob    []byte
	EAProfileGob  []byte
	PredictorGob  []byte
	EAPredictGob  []byte
	PredCost      int64
	PredMem       int64
	EAPredCost    int64
	EAPredMem     int64
	PerModelAgree [][]float64
}

func init() {
	gob.Register(&profiling.Profile{})
}

// Save writes the fitted pipeline state to w.
func (a *Artifacts) Save(w io.Writer) error {
	snap := snapshot{
		Version:       snapshotVersion,
		Seed:          a.Seed,
		Task:          int(a.Dataset.Task),
		Name:          a.Dataset.Name,
		Scaffold:      fingerprint(a),
		Fit:           a.fit,
		TrueScores:    a.TrueScores,
		EAScores:      a.EAScores,
		PerModelAgree: a.PerModelAgree,
	}
	// Calibrators and normalization samples.
	if a.DisScorer.Calibrators != nil {
		snap.Calibrators = make([]float64, len(a.DisScorer.Calibrators))
		for i, c := range a.DisScorer.Calibrators {
			if c != nil {
				snap.Calibrators[i] = c.T
			}
		}
	}
	snap.NormSamples = make([][]float64, len(a.DisScorer.Norms))
	for i, n := range a.DisScorer.Norms {
		snap.NormSamples[i] = n.Sample()
	}
	var err error
	if snap.ProfileGob, err = gobBytes(a.Profile); err != nil {
		return fmt.Errorf("pipeline: encode profile: %w", err)
	}
	if snap.EAProfileGob, err = gobBytes(a.EAProfile); err != nil {
		return fmt.Errorf("pipeline: encode ea profile: %w", err)
	}
	if snap.PredictorGob, err = a.Predictor.MarshalBinary(); err != nil {
		return fmt.Errorf("pipeline: encode predictor: %w", err)
	}
	if snap.EAPredictGob, err = a.EAPredictor.MarshalBinary(); err != nil {
		return fmt.Errorf("pipeline: encode ea predictor: %w", err)
	}
	snap.PredCost, snap.PredMem = int64(a.Predictor.InferCost), a.Predictor.MemoryBytes
	snap.EAPredCost, snap.EAPredMem = int64(a.EAPredictor.InferCost), a.EAPredictor.MemoryBytes
	return gob.NewEncoder(w).Encode(snap)
}

// SaveFile writes the snapshot to path.
func (a *Artifacts) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return a.Save(f)
}

// Load restores a fitted pipeline from r. cfg must describe the same
// dataset and models the snapshot was built from (same seeds); Load
// re-derives the deterministic parts (outputs, references, splits) and
// overlays the fitted state. It fails when the snapshot does not match.
func Load(cfg Config, r io.Reader) (*Artifacts, error) {
	snap, err := decodeSnapshot(r)
	if err != nil {
		return nil, err
	}
	cfg = resolved(cfg)
	if err := snap.identity().check(cfg); err != nil {
		return nil, err
	}
	a := buildScaffold(cfg)
	if err := snap.overlay(a); err != nil {
		return nil, err
	}
	return a, nil
}

// LoadFile restores a snapshot from path.
func LoadFile(cfg Config, path string) (*Artifacts, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(cfg, f)
}

func decodeSnapshot(r io.Reader) (*snapshot, error) {
	var snap snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("pipeline: decode snapshot: %w", err)
	}
	if snap.Version != snapshotVersion {
		return nil, fmt.Errorf("pipeline: snapshot version %d, want %d", snap.Version, snapshotVersion)
	}
	return &snap, nil
}

// identity is what a restore checks against the config before it builds
// anything: the deployment a snapshot was fitted on, short of the scaffold.
type identity struct {
	seed    uint64
	name    string
	samples int
	fit     fitSettings
}

func (s *snapshot) identity() identity {
	return identity{seed: s.Seed, name: s.Name, samples: len(s.TrueScores), fit: s.Fit}
}

// check names the first part of the identity cfg, with its defaults,
// does not share.
func (id identity) check(cfg Config) error {
	switch {
	case id.seed != cfg.Seed:
		return fmt.Errorf("pipeline: snapshot seed %d does not match config seed %d", id.seed, cfg.Seed)
	case cfg.Dataset == nil || id.name != cfg.Dataset.Name:
		return fmt.Errorf("pipeline: snapshot dataset %q does not match config", id.name)
	case id.samples != len(cfg.Dataset.Samples):
		return fmt.Errorf("pipeline: snapshot covers %d samples, dataset has %d",
			id.samples, len(cfg.Dataset.Samples))
	}
	return id.fit.check(fitOf(cfg))
}

// overlay puts the snapshot's fitted state on a, the scaffold of a config
// with the snapshot's identity, once a's fingerprint matches the one the
// state was fitted on. It leaves a untouched when it fails.
func (s *snapshot) overlay(a *Artifacts) error {
	if err := s.Scaffold.check(fingerprint(a)); err != nil {
		return err
	}
	dis := &discrepancy.Scorer{Task: a.Dataset.Task}
	if s.Calibrators != nil {
		dis.Calibrators = make([]*calib.Scaler, len(s.Calibrators))
		for i, t := range s.Calibrators {
			//schemble:floateq-ok snapshot sentinel: temperature 0 round-trips verbatim through JSON and means no calibrator
			if t != 0 {
				dis.Calibrators[i] = &calib.Scaler{T: t}
			}
		}
	}
	dis.Norms = make([]*discrepancy.ECDF, len(s.NormSamples))
	for i, x := range s.NormSamples {
		dis.Norms[i] = discrepancy.NewECDF(x)
	}
	var profile, eaProfile *profiling.Profile
	if err := gobInto(s.ProfileGob, &profile); err != nil {
		return fmt.Errorf("pipeline: decode profile: %w", err)
	}
	if err := gobInto(s.EAProfileGob, &eaProfile); err != nil {
		return fmt.Errorf("pipeline: decode ea profile: %w", err)
	}
	pred, err := discrepancy.RestorePredictor(s.PredictorGob, durationOf(s.PredCost), s.PredMem)
	if err != nil {
		return fmt.Errorf("pipeline: restore predictor: %w", err)
	}
	eaPred, err := discrepancy.RestorePredictor(s.EAPredictGob, durationOf(s.EAPredCost), s.EAPredMem)
	if err != nil {
		return fmt.Errorf("pipeline: restore ea predictor: %w", err)
	}
	a.fit = s.Fit
	a.DisScorer = dis
	a.TrueScores, a.EAScores, a.PerModelAgree = s.TrueScores, s.EAScores, s.PerModelAgree
	a.Profile, a.EAProfile = profile, eaProfile
	a.Predictor, a.EAPredictor = pred, eaPred
	return nil
}

// buildScaffold derives the deterministic (non-trained) artifacts from
// cfg, which has its defaults: ensemble, outputs, references, splits.
// Fitting starts from it and restoring re-derives it, so a restored
// pipeline and a fitted one cannot disagree on them.
func buildScaffold(cfg Config) *Artifacts {
	a := &Artifacts{Dataset: cfg.Dataset, Seed: cfg.Seed}
	a.Ensemble = ensemble.New(cfg.Dataset.Task, cfg.Models, cfg.Aggregator, nil)
	a.Scorer = ensemble.NewScorer(cfg.Dataset)
	a.Train, a.Val, a.Serve = cfg.Dataset.Split(cfg.TrainFrac, cfg.ValFrac, cfg.Seed)
	n := len(cfg.Dataset.Samples)
	a.Outs = make([][]model.Output, n)
	a.Refs = make([]model.Output, n)
	for _, s := range cfg.Dataset.Samples {
		outs := a.Ensemble.Outputs(s)
		a.Outs[s.ID] = outs
		a.Refs[s.ID] = a.Ensemble.Predict(outs, a.Ensemble.FullSubset())
	}
	return a
}

// fitSettings are the Config fields that shape the fitted state but not the
// scaffold.
type fitSettings struct {
	PredictorEpochs, Bins int
	DisableCalibration    bool
}

// fitOf reads cfg's fit settings; cfg has its defaults.
func fitOf(cfg Config) fitSettings {
	return fitSettings{PredictorEpochs: cfg.PredictorEpochs, Bins: cfg.Bins, DisableCalibration: cfg.DisableCalibration}
}

// check names the first setting that differs from want.
func (s fitSettings) check(want fitSettings) error {
	switch {
	case s.PredictorEpochs != want.PredictorEpochs:
		return fmt.Errorf("pipeline: snapshot was fitted with PredictorEpochs %d, config asks for %d", s.PredictorEpochs, want.PredictorEpochs)
	case s.Bins != want.Bins:
		return fmt.Errorf("pipeline: snapshot was fitted with Bins %d, config asks for %d", s.Bins, want.Bins)
	case s.DisableCalibration != want.DisableCalibration:
		return fmt.Errorf("pipeline: snapshot was fitted with DisableCalibration %v, config asks for %v", s.DisableCalibration, want.DisableCalibration)
	}
	return nil
}

// scaffoldPrint is a hash of each part of the scaffold and of what the
// predictors read: every sample's features, every model's and the full
// ensemble's outputs on every sample, bit for bit, and the IDs of the three
// splits.
type scaffoldPrint struct {
	Features, Outs, Refs, Splits uint64
}

func fingerprint(a *Artifacts) scaffoldPrint {
	var p scaffoldPrint
	h := fnvOffset
	for _, s := range a.Dataset.Samples {
		h.floats(s.Features)
	}
	p.Features, h = uint64(h), fnvOffset
	for _, outs := range a.Outs {
		for _, o := range outs {
			h.output(o)
		}
	}
	p.Outs, h = uint64(h), fnvOffset
	for _, o := range a.Refs {
		h.output(o)
	}
	p.Refs, h = uint64(h), fnvOffset
	for _, split := range [][]*dataset.Sample{a.Train, a.Val, a.Serve} {
		h.uint(uint64(len(split)))
		for _, s := range split {
			h.uint(uint64(s.ID))
		}
	}
	p.Splits = uint64(h)
	return p
}

// check names the first part of the scaffold that differs from want.
func (p scaffoldPrint) check(want scaffoldPrint) error {
	switch {
	case p.Features != want.Features:
		return errors.New("pipeline: snapshot was fitted on other sample features than this config's dataset has")
	case p.Outs != want.Outs:
		return errors.New("pipeline: snapshot was fitted on other model outputs than this config's models give")
	case p.Refs != want.Refs:
		return errors.New("pipeline: snapshot was fitted on other ensemble references than this config's aggregator gives")
	case p.Splits != want.Splits:
		return errors.New("pipeline: snapshot was fitted on other train/val/serve splits than this config draws")
	}
	return nil
}

// fnv1a is FNV-1a over the little-endian bytes of the words it is fed,
// inline: every Build of the shipped deployment fingerprints its scaffold,
// and hash.Hash's Write costs an interface call and a heap slice per word.
type fnv1a uint64

const (
	fnvOffset fnv1a = 14695981039346656037
	fnvPrime  fnv1a = 1099511628211
)

func (h *fnv1a) uint(v uint64) {
	x := *h
	for i := 0; i < 8; i++ {
		x ^= fnv1a(byte(v))
		x *= fnvPrime
		v >>= 8
	}
	*h = x
}

// floats writes the length first, so adjacent slices cannot alias.
func (h *fnv1a) floats(xs []float64) {
	h.uint(uint64(len(xs)))
	for _, x := range xs {
		h.uint(math.Float64bits(x))
	}
}

func (h *fnv1a) output(o model.Output) {
	h.floats(o.Probs)
	h.uint(math.Float64bits(o.Value))
	h.floats(o.Embedding)
}

func gobBytes(v interface{}) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func gobInto(data []byte, v interface{}) error {
	return gob.NewDecoder(bytes.NewReader(data)).Decode(v)
}
