// Package policy implements the paper's baseline selection policies:
//
//   - Original: every query executes the full ensemble;
//   - Static: one subset for all queries, chosen by offline greedy search,
//     with freed memory packed with replicas of the chosen models;
//   - DES: dynamic ensemble selection — k-means regions over input features
//     with per-region per-model competence scores, thresholded per query;
//   - Gating: a trained gate network scores each model's credibility per
//     query; models below the threshold are filtered out.
//
// All of them select at arrival time from query features alone — none sees
// the queue, which is precisely the gap Schemble's scheduler fills.
package policy

import (
	"math"

	"schemble/internal/cluster"
	"schemble/internal/dataset"
	"schemble/internal/ensemble"
	"schemble/internal/mathx"
	"schemble/internal/model"
	"schemble/internal/nn"
	"schemble/internal/rng"
)

// Original returns the trivial policy: the full ensemble for every query.
func Original(m int) func(*dataset.Sample) ensemble.Subset {
	full := ensemble.Full(m)
	return func(*dataset.Sample) ensemble.Subset { return full }
}

// StaticPlan is the offline deployment the static baseline chose.
type StaticPlan struct {
	Subset ensemble.Subset
	// Replicas[j] is the number of deployed instances of model type j
	// (zero for dropped models).
	Replicas []int
	// Accuracy is the subset's profiled agreement with the full ensemble.
	Accuracy float64
	// Throughput is the plan's sustainable query rate (queries/second):
	// every query needs one task on each chosen model, so the bottleneck
	// type governs.
	Throughput float64
}

// StaticConfig configures PlanStatic.
type StaticConfig struct {
	// MemoryBudget is the total deployable bytes; defaults to the sum of
	// all base models (the paper's setting: static selection reuses the
	// memory the full deployment occupied).
	MemoryBudget int64
	// TargetRate is the load (queries/second) the plan should sustain.
	TargetRate float64
}

// PlanStatic greedily searches all non-empty subsets: it packs replicas of
// each candidate subset into the memory budget (always growing the
// bottleneck type) and picks the subset maximizing accuracy among plans
// that sustain TargetRate — or, when none does, the best
// accuracy*min(1, throughput/target) compromise.
func PlanStatic(cfg StaticConfig, models []model.Model, subsetAccuracy func(ensemble.Subset) float64) StaticPlan {
	m := len(models)
	budget := cfg.MemoryBudget
	if budget == 0 {
		for _, md := range models {
			budget += md.Memory()
		}
	}
	var best StaticPlan
	bestScore := -1.0
	for _, sub := range ensemble.AllSubsets(m) {
		var used int64
		replicas := make([]int, m)
		fits := true
		for _, j := range sub.Models() {
			used += models[j].Memory()
			replicas[j] = 1
		}
		if used > budget {
			fits = false
		}
		if !fits {
			continue
		}
		// Pack replicas: repeatedly add one instance of the bottleneck
		// type (lowest replicas/latency ratio) while it fits.
		for {
			bottleneck := -1
			var worst float64
			for _, j := range sub.Models() {
				rate := float64(replicas[j]) / models[j].MeanLatency().Seconds()
				if bottleneck < 0 || rate < worst {
					bottleneck, worst = j, rate
				}
			}
			if bottleneck < 0 || used+models[bottleneck].Memory() > budget {
				break
			}
			used += models[bottleneck].Memory()
			replicas[bottleneck]++
		}
		throughput := 0.0
		for i, j := range sub.Models() {
			rate := float64(replicas[j]) / models[j].MeanLatency().Seconds()
			if i == 0 || rate < throughput {
				throughput = rate
			}
		}
		acc := subsetAccuracy(sub)
		score := acc
		if cfg.TargetRate > 0 && throughput < cfg.TargetRate {
			score = acc * throughput / cfg.TargetRate
		}
		if score > bestScore {
			bestScore = score
			best = StaticPlan{Subset: sub, Replicas: replicas,
				Accuracy: acc, Throughput: throughput}
		}
	}
	return best
}

// Select returns the static plan's selection function.
func (p StaticPlan) Select() func(*dataset.Sample) ensemble.Subset {
	return func(*dataset.Sample) ensemble.Subset { return p.Subset }
}

// DES is the dynamic-ensemble-selection baseline: input-space regions from
// k-means, per-region per-model competence (agreement with the full
// ensemble), relative-threshold selection.
type DES struct {
	km *cluster.KMeans
	// competence[region][model]
	competence [][]float64
	// Threshold is relative: model k is selected in region r iff
	// competence[r][k] >= Threshold * max_j competence[r][j]. Default 0.98.
	Threshold float64
}

// DESConfig configures TrainDES.
type DESConfig struct {
	Regions   int // default 8
	Threshold float64
	Seed      uint64
}

// TrainDES fits the regions and competence table. perModelAgree[i][k] is
// the agreement of model k alone with the full ensemble on sample i.
func TrainDES(cfg DESConfig, samples []*dataset.Sample, perModelAgree [][]float64) *DES {
	if len(samples) == 0 || len(samples) != len(perModelAgree) {
		panic("policy: empty or mismatched DES training data")
	}
	if cfg.Regions <= 0 {
		cfg.Regions = 8
	}
	//schemble:floateq-ok zero-value config sentinel: the field is set verbatim by callers, never computed
	if cfg.Threshold == 0 {
		// Deep-model competences are close together; a tight relative
		// threshold makes DES do what the paper observes: "execute the
		// model with the highest accuracy" for most queries.
		cfg.Threshold = 0.995
	}
	points := make([][]float64, len(samples))
	for i, s := range samples {
		points[i] = s.Features
	}
	km, err := cluster.Fit(points, cfg.Regions, 30, rng.New(cfg.Seed^0xde5))
	if err != nil {
		// Unreachable: the empty-samples guard above and the dataset's
		// fixed feature width rule out every Fit error.
		panic("policy: " + err.Error())
	}
	m := len(perModelAgree[0])
	comp := make([][]float64, km.K())
	counts := make([]int, km.K())
	for r := range comp {
		comp[r] = make([]float64, m)
	}
	for i, s := range samples {
		r := km.Assign(s.Features)
		counts[r]++
		for k := 0; k < m; k++ {
			comp[r][k] += perModelAgree[i][k]
		}
	}
	for r := range comp {
		if counts[r] == 0 {
			continue
		}
		for k := range comp[r] {
			comp[r][k] /= float64(counts[r])
		}
	}
	return &DES{km: km, competence: comp, Threshold: cfg.Threshold}
}

// Select implements the per-query selection rule.
func (d *DES) Select(s *dataset.Sample) ensemble.Subset {
	r := d.km.Assign(s.Features)
	comp := d.competence[r]
	best := mathx.ArgMax(comp)
	sub := ensemble.Single(best)
	for k := range comp {
		if k != best && comp[k] >= d.Threshold*comp[best] {
			sub = sub.With(k)
		}
	}
	return sub
}

// Gating is the gate-network baseline: an MLP scores each base model's
// credibility on the query; models with weights under the threshold are
// filtered out. Deployed gating for latency-sensitive serving thresholds
// weight-per-cost: because the gate cannot discriminate deep models'
// preferences (its weights are nearly constant per model), cost-awareness
// makes it favor the fastest model — exactly the behaviour the paper
// observes ("Gating often executes the fastest model, reducing the miss
// rate but having low accuracy").
type Gating struct {
	net *nn.Net
	// Threshold is relative to the best (cost-adjusted) weight. Default
	// 0.95.
	Threshold float64
	// Latencies enables cost-aware selection: weights are divided by
	// sqrt(latency) before thresholding. nil disables cost adjustment.
	Latencies []float64
}

// GatingConfig configures TrainGating.
type GatingConfig struct {
	Hidden    []int
	Epochs    int
	Threshold float64
	// Latencies (seconds per model) switch on cost-aware thresholding.
	Latencies []float64
	Seed      uint64
}

// TrainGating fits the gate network: sigmoid outputs per model trained with
// BCE against each model's observed agreement with the full ensemble —
// "learning whether each model is correct on the current query", which the
// paper identifies as what gating effectively does.
func TrainGating(cfg GatingConfig, samples []*dataset.Sample, perModelAgree [][]float64) *Gating {
	if len(samples) == 0 || len(samples) != len(perModelAgree) {
		panic("policy: empty or mismatched gating training data")
	}
	if len(cfg.Hidden) == 0 {
		cfg.Hidden = []int{32, 16}
	}
	if cfg.Epochs == 0 {
		cfg.Epochs = 60
	}
	//schemble:floateq-ok zero-value config sentinel: the field is set verbatim by callers, never computed
	if cfg.Threshold == 0 {
		cfg.Threshold = 0.95
	}
	m := len(perModelAgree[0])
	net := nn.NewNet(nn.Config{
		Spec:    nn.Spec{In: len(samples[0].Features), Hidden: cfg.Hidden},
		TaskOut: m, TaskAct: nn.SigmoidAct,
	}, rng.New(cfg.Seed^0x6a7e))
	ds := nn.Dataset{}
	for i, s := range samples {
		ds.X = append(ds.X, s.Features)
		ds.Y = append(ds.Y, perModelAgree[i])
	}
	net.Train(nn.TrainConfig{
		Loss: nn.BCE, Epochs: cfg.Epochs, BatchSize: 64, LR: 0.005,
		Optimizer: nn.Adam, Seed: cfg.Seed,
	}, ds)
	return &Gating{net: net, Threshold: cfg.Threshold, Latencies: cfg.Latencies}
}

// Weights returns the gate's per-model weights for s.
func (g *Gating) Weights(s *dataset.Sample) []float64 {
	return g.net.Predict(s.Features)
}

// Select implements the thresholded selection rule (cost-adjusted when
// Latencies is set).
func (g *Gating) Select(s *dataset.Sample) ensemble.Subset {
	w := g.Weights(s)
	if g.Latencies != nil {
		for k := range w {
			w[k] /= math.Sqrt(g.Latencies[k])
		}
	}
	best := mathx.ArgMax(w)
	sub := ensemble.Single(best)
	for k := range w {
		if k != best && w[k] >= g.Threshold*w[best] {
			sub = sub.With(k)
		}
	}
	return sub
}
