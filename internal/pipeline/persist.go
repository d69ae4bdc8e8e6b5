package pipeline

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"math"
	"os"
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
// second for the server's deployment on two cores, growing with samples and
// epochs); a deployment fits once and restores. cmd/schemble-server embeds
// the snapshot of its default deployment and restores it at start. Save/Load
// serialize the fitted state (scorer normalization, calibrators, reward
// profiles, predictor weights, per-sample artifacts) with encoding/gob.
// The dataset and models are reconstructed from their generator seeds, so
// a snapshot stays small and self-consistent: Load verifies the seed, the
// sample count, the fit settings and a fingerprint of the re-derived
// scaffold (model outputs, ensemble references, splits), then overlays the
// fitted state.

// snapshotVersion guards against loading incompatible snapshots.
const snapshotVersion = 3

// snapshot is the serialized fitted state.
type snapshot struct {
	Version int
	Seed    uint64
	Task    int
	Name    string

	// Scaffold fingerprints what Load re-derives instead of storing, so a
	// snapshot fitted on other models, another aggregator or other splits
	// is rejected rather than overlaid on outputs it does not describe.
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
	var snap snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("pipeline: decode snapshot: %w", err)
	}
	if snap.Version != snapshotVersion {
		return nil, fmt.Errorf("pipeline: snapshot version %d, want %d", snap.Version, snapshotVersion)
	}
	if snap.Seed != cfg.Seed {
		return nil, fmt.Errorf("pipeline: snapshot seed %d does not match config seed %d", snap.Seed, cfg.Seed)
	}
	if cfg.Dataset == nil || snap.Name != cfg.Dataset.Name {
		return nil, fmt.Errorf("pipeline: snapshot dataset %q does not match config", snap.Name)
	}
	if len(snap.TrueScores) != len(cfg.Dataset.Samples) {
		return nil, fmt.Errorf("pipeline: snapshot covers %d samples, dataset has %d",
			len(snap.TrueScores), len(cfg.Dataset.Samples))
	}
	if err := snap.Fit.check(fitOf(cfg)); err != nil {
		return nil, err
	}
	// Rebuild the deterministic scaffolding without any training.
	a := buildScaffold(cfg)
	if err := snap.Scaffold.check(fingerprint(a)); err != nil {
		return nil, err
	}
	a.fit = snap.Fit
	// Overlay fitted state.
	a.TrueScores = snap.TrueScores
	a.EAScores = snap.EAScores
	a.PerModelAgree = snap.PerModelAgree
	a.DisScorer = &discrepancy.Scorer{Task: a.Dataset.Task}
	if snap.Calibrators != nil {
		a.DisScorer.Calibrators = make([]*calib.Scaler, len(snap.Calibrators))
		for i, t := range snap.Calibrators {
			//schemble:floateq-ok snapshot sentinel: temperature 0 round-trips verbatim through JSON and means no calibrator
			if t != 0 {
				a.DisScorer.Calibrators[i] = &calib.Scaler{T: t}
			}
		}
	}
	a.DisScorer.Norms = make([]*discrepancy.ECDF, len(snap.NormSamples))
	for i, s := range snap.NormSamples {
		a.DisScorer.Norms[i] = discrepancy.NewECDF(s)
	}
	if err := gobInto(snap.ProfileGob, &a.Profile); err != nil {
		return nil, fmt.Errorf("pipeline: decode profile: %w", err)
	}
	if err := gobInto(snap.EAProfileGob, &a.EAProfile); err != nil {
		return nil, fmt.Errorf("pipeline: decode ea profile: %w", err)
	}
	var err error
	if a.Predictor, err = discrepancy.RestorePredictor(snap.PredictorGob,
		durationOf(snap.PredCost), snap.PredMem); err != nil {
		return nil, fmt.Errorf("pipeline: restore predictor: %w", err)
	}
	if a.EAPredictor, err = discrepancy.RestorePredictor(snap.EAPredictGob,
		durationOf(snap.EAPredCost), snap.EAPredMem); err != nil {
		return nil, fmt.Errorf("pipeline: restore ea predictor: %w", err)
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

// buildScaffold derives the deterministic (non-trained) artifacts from
// cfg: ensemble, outputs, references, splits. Build starts from it and Load
// re-derives it, so a restored pipeline and a fitted one cannot disagree
// on them.
func buildScaffold(cfg Config) *Artifacts {
	if cfg.Aggregator == nil {
		cfg.Aggregator = &ensemble.Average{}
	}
	//schemble:floateq-ok zero-value config sentinel: the field is set verbatim by callers, never computed
	if cfg.TrainFrac == 0 {
		cfg.TrainFrac = 0.5
	}
	//schemble:floateq-ok zero-value config sentinel: the field is set verbatim by callers, never computed
	if cfg.ValFrac == 0 {
		cfg.ValFrac = 0.1
	}
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
// scaffold, with their defaults resolved.
type fitSettings struct {
	PredictorEpochs, Bins int
	DisableCalibration    bool
}

func fitOf(cfg Config) fitSettings {
	s := fitSettings{PredictorEpochs: cfg.PredictorEpochs, Bins: cfg.Bins, DisableCalibration: cfg.DisableCalibration}
	if s.PredictorEpochs == 0 {
		s.PredictorEpochs = 150
	}
	if s.Bins == 0 {
		s.Bins = 10
	}
	return s
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

// scaffoldPrint is a hash of each part of the scaffold: every model's and
// the full ensemble's outputs on every sample, bit for bit, and the IDs of
// the three splits.
type scaffoldPrint struct {
	Outs, Refs, Splits uint64
}

func fingerprint(a *Artifacts) scaffoldPrint {
	var p scaffoldPrint
	h := fnv.New64a()
	for _, outs := range a.Outs {
		for _, o := range outs {
			hashOutput(h, o)
		}
	}
	p.Outs = h.Sum64()
	h.Reset()
	for _, o := range a.Refs {
		hashOutput(h, o)
	}
	p.Refs = h.Sum64()
	h.Reset()
	for _, split := range [][]*dataset.Sample{a.Train, a.Val, a.Serve} {
		hashUint(h, uint64(len(split)))
		for _, s := range split {
			hashUint(h, uint64(s.ID))
		}
	}
	p.Splits = h.Sum64()
	return p
}

// check names the first part of the scaffold that differs from want.
func (p scaffoldPrint) check(want scaffoldPrint) error {
	switch {
	case p.Outs != want.Outs:
		return errors.New("pipeline: snapshot was fitted on other model outputs than this config's models give")
	case p.Refs != want.Refs:
		return errors.New("pipeline: snapshot was fitted on other ensemble references than this config's aggregator gives")
	case p.Splits != want.Splits:
		return errors.New("pipeline: snapshot was fitted on other train/val/serve splits than this config draws")
	}
	return nil
}

func hashOutput(h hash.Hash64, o model.Output) {
	hashFloats(h, o.Probs)
	hashUint(h, math.Float64bits(o.Value))
	hashFloats(h, o.Embedding)
}

// hashFloats writes the length first, so adjacent slices cannot alias.
func hashFloats(h hash.Hash64, xs []float64) {
	hashUint(h, uint64(len(xs)))
	for _, x := range xs {
		hashUint(h, math.Float64bits(x))
	}
}

func hashUint(h hash.Hash64, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
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
