package discrepancy

import (
	"sync"
	"time"

	"schemble/internal/dataset"
	"schemble/internal/nn"
	"schemble/internal/rng"
)

// Predictor is the lightweight two-headed network that estimates a query's
// discrepancy score from its observable features before any base model has
// run (Section V-C). The first head reproduces the original task (its
// output is discarded at inference time but, per the paper, training it
// jointly improves the difficulty head); the second head regresses the
// discrepancy score.
type Predictor struct {
	// mu serializes forward passes: nn.Net reuses scratch buffers and is
	// not safe for concurrent use, while serving runtimes score queries
	// from many goroutines.
	mu  sync.Mutex
	net *nn.Net
	// InferCost is the simulated per-query latency of running the
	// predictor; it is charged by the serving runtimes (the paper measures
	// it at ~6.5% of the ensemble's runtime, Fig. 13).
	InferCost time.Duration
	// MemoryBytes is the predictor's simulated footprint.
	MemoryBytes int64
}

// PredictorConfig controls TrainPredictor.
type PredictorConfig struct {
	Task    dataset.Task
	Classes int // classification
	Hidden  []int
	Epochs  int
	// Lambda is the joint-loss weight on the difficulty head (Eq. 2);
	// the paper uses 0.2.
	Lambda float64
	Seed   uint64
	// InferCost and MemoryMB configure the simulated serving cost;
	// defaults: 3ms, 25MB.
	InferCost time.Duration
	MemoryMB  int64
}

// TrainPredictor fits a predictor on samples with per-sample discrepancy
// targets (in [0,1]) and task targets. taskTargets[i] is the task head's
// training target: a one-hot class vector for classification (the ensemble's
// prediction, per the paper's convention) or a single normalized value for
// regression/retrieval.
func TrainPredictor(cfg PredictorConfig, samples []*dataset.Sample, scores []float64, taskTargets [][]float64) *Predictor {
	if len(samples) == 0 || len(samples) != len(scores) || len(samples) != len(taskTargets) {
		panic("discrepancy: empty or mismatched predictor training data")
	}
	//schemble:floateq-ok zero-value config sentinel: the field is set verbatim by callers, never computed
	if cfg.Lambda == 0 {
		cfg.Lambda = 0.2
	}
	if cfg.Epochs == 0 {
		cfg.Epochs = 150
	}
	if len(cfg.Hidden) == 0 {
		cfg.Hidden = []int{48, 24}
	}
	if cfg.InferCost == 0 {
		cfg.InferCost = 3 * time.Millisecond
	}
	if cfg.MemoryMB == 0 {
		cfg.MemoryMB = 25
	}

	taskOut := len(taskTargets[0])
	var taskAct nn.Activation
	var loss nn.Loss
	switch cfg.Task {
	case dataset.Classification:
		taskAct, loss = nn.Softmax, nn.CE
	default:
		taskAct, loss = nn.Identity, nn.MSE
	}
	net := nn.NewNet(nn.Config{
		Spec:    nn.Spec{In: len(samples[0].Features), Hidden: cfg.Hidden},
		TaskOut: taskOut, TaskAct: taskAct,
		WithHead2: true,
	}, rng.New(cfg.Seed+0xd15c))

	ds := nn.Dataset{Dis: scores, Y: taskTargets}
	for _, s := range samples {
		ds.X = append(ds.X, s.Features)
	}
	net.Train(nn.TrainConfig{
		Loss: loss, Epochs: cfg.Epochs, BatchSize: 32, LR: 0.01,
		Optimizer: nn.Adam, Lambda: cfg.Lambda, Seed: cfg.Seed,
	}, ds)
	return &Predictor{
		net:         net,
		InferCost:   cfg.InferCost,
		MemoryBytes: cfg.MemoryMB << 20,
	}
}

// Predict estimates the discrepancy score of s in [0,1]. It is safe for
// concurrent use.
func (p *Predictor) Predict(s *dataset.Sample) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.net.PredictScore(s.Features)
}

// NumParams reports the predictor's parameter count (for the overhead
// study, Fig. 13).
func (p *Predictor) NumParams() int { return p.net.NumParams() }

// ConstantPredictor assigns the same score to every query; it implements
// the Schemble(t) ablation of Exp-3 (no difficulty information, scheduler
// only).
type ConstantPredictor struct {
	Value float64
}

// Predict returns the fixed score.
func (c *ConstantPredictor) Predict(*dataset.Sample) float64 { return c.Value }

// ScoreEstimator is the interface the serving pipeline consumes: anything
// that maps a sample to a difficulty estimate in [0,1].
type ScoreEstimator interface {
	Predict(s *dataset.Sample) float64
}

var (
	_ ScoreEstimator = (*Predictor)(nil)
	_ ScoreEstimator = (*ConstantPredictor)(nil)
)

// RestorePredictor rebuilds a predictor from weights serialized with
// nn.Net.MarshalBinary plus its serving-cost parameters.
func RestorePredictor(data []byte, inferCost time.Duration, memoryBytes int64) (*Predictor, error) {
	net, err := nn.RestoreNet(data)
	if err != nil {
		return nil, err
	}
	return &Predictor{net: net, InferCost: inferCost, MemoryBytes: memoryBytes}, nil
}

// MarshalBinary serializes the predictor's network weights.
func (p *Predictor) MarshalBinary() ([]byte, error) { return p.net.MarshalBinary() }
