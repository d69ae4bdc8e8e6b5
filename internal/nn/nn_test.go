package nn

import (
	"math"
	"testing"
	"testing/quick"

	"schemble/internal/mathx"
	"schemble/internal/rng"
)

func TestForwardShapes(t *testing.T) {
	src := rng.New(1)
	n := NewNet(Config{
		Spec:    Spec{In: 4, Hidden: []int{8, 6}},
		TaskOut: 3, TaskAct: Softmax,
		WithHead2: true,
	}, src)
	out, dis := n.Forward([]float64{0.1, -0.2, 0.3, 0.5})
	if len(out) != 3 {
		t.Fatalf("task out len = %d", len(out))
	}
	var sum float64
	for _, v := range out {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("softmax output sums to %v", sum)
	}
	if dis < 0 || dis > 1 {
		t.Errorf("sigmoid head out of range: %v", dis)
	}
}

func TestNumParams(t *testing.T) {
	src := rng.New(2)
	n := NewNet(Config{
		Spec:    Spec{In: 3, Hidden: []int{5}},
		TaskOut: 2, TaskAct: Softmax,
	}, src)
	// trunk: 3*5+5 = 20; head1: 5*2+2 = 12.
	if got := n.NumParams(); got != 32 {
		t.Errorf("NumParams = %d, want 32", got)
	}
}

// numericalGradCheck verifies backprop against central finite differences
// for a tiny two-headed net.
func TestGradientCheck(t *testing.T) {
	src := rng.New(3)
	n := NewNet(Config{
		Spec:    Spec{In: 3, Hidden: []int{4}, HiddenAct: Tanh},
		TaskOut: 2, TaskAct: Softmax,
		WithHead2: true,
	}, src)
	cfg := TrainConfig{Loss: CE, Lambda: 0.2}
	x := []float64{0.3, -0.7, 0.9}
	y := []float64{1, 0}
	dis := 0.4

	lossAt := func() float64 {
		out, d := n.Forward(x)
		l := cfg.Loss.value(out, y)
		dd := d - dis
		return l + cfg.Lambda*dd*dd
	}

	n.grads.zero()
	n.backwardExample(cfg, x, y, dis)

	check := func(name string, w []float64, dw []float64) {
		const h = 1e-6
		for i := 0; i < len(w); i += 3 { // spot-check every third param
			orig := w[i]
			w[i] = orig + h
			lp := lossAt()
			w[i] = orig - h
			lm := lossAt()
			w[i] = orig
			numeric := (lp - lm) / (2 * h)
			analytic := dw[i]
			if math.Abs(numeric-analytic) > 1e-4*(1+math.Abs(numeric)) {
				t.Errorf("%s[%d]: numeric %v vs analytic %v", name, i, numeric, analytic)
			}
		}
	}
	check("trunk.W", n.Trunk[0].W, n.grads.trunk[0].dW)
	check("trunk.B", n.Trunk[0].B, n.grads.trunk[0].dB)
	check("head1.W", n.Head1.W, n.grads.head1.dW)
	check("head2.W", n.Head2.W, n.grads.head2.dW)
}

func TestTrainXOR(t *testing.T) {
	src := rng.New(4)
	n := NewNet(Config{
		Spec:    Spec{In: 2, Hidden: []int{8}, HiddenAct: Tanh},
		TaskOut: 1, TaskAct: SigmoidAct,
	}, src)
	ds := Dataset{
		X: [][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}},
		Y: [][]float64{{0}, {1}, {1}, {0}},
	}
	cfg := TrainConfig{Loss: BCE, Epochs: 2000, BatchSize: 4, LR: 0.05, Optimizer: Adam, Seed: 4}
	n.Train(cfg, ds)
	for i, x := range ds.X {
		p := n.Predict(x)[0]
		want := ds.Y[i][0]
		if (want == 1 && p < 0.7) || (want == 0 && p > 0.3) {
			t.Errorf("XOR(%v) = %v, want near %v", x, p, want)
		}
	}
}

func TestTrainMulticlass(t *testing.T) {
	src := rng.New(5)
	data := rng.New(6)
	// Three Gaussian blobs in 2D.
	var xs [][]float64
	var ys [][]float64
	centers := [][]float64{{0, 0}, {4, 0}, {0, 4}}
	for c, center := range centers {
		for i := 0; i < 100; i++ {
			xs = append(xs, []float64{
				data.Normal(center[0], 0.5), data.Normal(center[1], 0.5)})
			y := make([]float64, 3)
			y[c] = 1
			ys = append(ys, y)
		}
	}
	n := NewNet(Config{
		Spec:    Spec{In: 2, Hidden: []int{16}},
		TaskOut: 3, TaskAct: Softmax,
	}, src)
	cfg := TrainConfig{Loss: CE, Epochs: 60, BatchSize: 16, LR: 0.01, Optimizer: Adam, Seed: 5}
	n.Train(cfg, Dataset{X: xs, Y: ys})
	correct := 0
	for i := range xs {
		if mathx.ArgMax(n.Predict(xs[i])) == mathx.ArgMax(ys[i]) {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(xs)); acc < 0.95 {
		t.Errorf("blob accuracy = %v, want >= 0.95", acc)
	}
}

func TestTrainJointHeads(t *testing.T) {
	// The difficulty head should learn a monotone function of the input.
	src := rng.New(7)
	data := rng.New(8)
	var xs [][]float64
	var ys [][]float64
	var dis []float64
	for i := 0; i < 400; i++ {
		h := data.Float64()
		xs = append(xs, []float64{h + data.Normal(0, 0.05), data.Float64()})
		label := 0.0
		if h > 0.5 {
			label = 1
		}
		ys = append(ys, []float64{label})
		dis = append(dis, h)
	}
	n := NewNet(Config{
		Spec:    Spec{In: 2, Hidden: []int{16}},
		TaskOut: 1, TaskAct: SigmoidAct,
		WithHead2: true,
	}, src)
	cfg := TrainConfig{Loss: BCE, Epochs: 120, BatchSize: 32, LR: 0.01,
		Optimizer: Adam, Lambda: 0.5, Seed: 7}
	n.Train(cfg, Dataset{X: xs, Y: ys, Dis: dis})

	preds := make([]float64, len(xs))
	for i := range xs {
		preds[i] = n.PredictScore(xs[i])
	}
	if r := mathx.Pearson(preds, dis); r < 0.85 {
		t.Errorf("difficulty head correlation = %v, want >= 0.85", r)
	}
}

func TestTrainDeterminism(t *testing.T) {
	build := func() float64 {
		src := rng.New(9)
		n := NewNet(Config{
			Spec:    Spec{In: 2, Hidden: []int{6}},
			TaskOut: 1, TaskAct: SigmoidAct,
		}, src)
		ds := Dataset{
			X: [][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}},
			Y: [][]float64{{0}, {1}, {1}, {0}},
		}
		return n.Train(TrainConfig{Loss: BCE, Epochs: 50, BatchSize: 2, LR: 0.05,
			Optimizer: Adam, Seed: 9}, ds)
	}
	if a, b := build(), build(); a != b {
		t.Errorf("training not deterministic: %v vs %v", a, b)
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	src := rng.New(10)
	n := NewNet(Config{
		Spec:    Spec{In: 3, Hidden: []int{5}},
		TaskOut: 2, TaskAct: Softmax,
		WithHead2: true,
	}, src)
	x := []float64{0.5, -0.25, 1}
	wantOut, wantDis := n.Forward(x)
	wantCopy := append([]float64(nil), wantOut...)

	blob, err := n.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored := NewNet(Config{
		Spec:    Spec{In: 3, Hidden: []int{5}},
		TaskOut: 2, TaskAct: Softmax,
		WithHead2: true,
	}, rng.New(999))
	if err := restored.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	gotOut, gotDis := restored.Forward(x)
	for i := range wantCopy {
		if math.Abs(gotOut[i]-wantCopy[i]) > 1e-15 {
			t.Errorf("out[%d] = %v, want %v", i, gotOut[i], wantCopy[i])
		}
	}
	if gotDis != wantDis {
		t.Errorf("dis = %v, want %v", gotDis, wantDis)
	}
}

func TestLossValues(t *testing.T) {
	if v := MSE.value([]float64{1, 2}, []float64{1, 4}); math.Abs(v-2) > 1e-12 {
		t.Errorf("MSE = %v, want 2", v)
	}
	if v := CE.value([]float64{0.5, 0.5}, []float64{1, 0}); math.Abs(v-math.Log(2)) > 1e-9 {
		t.Errorf("CE = %v, want ln2", v)
	}
	if v := BCE.value([]float64{0.5}, []float64{1}); math.Abs(v-math.Log(2)) > 1e-9 {
		t.Errorf("BCE = %v, want ln2", v)
	}
}

// Property: training on any tiny dataset never produces NaN weights.
func TestTrainNoNaNs(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		data := rng.New(seed + 1)
		n := NewNet(Config{
			Spec:    Spec{In: 2, Hidden: []int{4}},
			TaskOut: 1, TaskAct: SigmoidAct,
			WithHead2: true,
		}, src)
		var xs [][]float64
		var ys [][]float64
		var dis []float64
		for i := 0; i < 16; i++ {
			xs = append(xs, []float64{data.Normal(0, 3), data.Normal(0, 3)})
			ys = append(ys, []float64{float64(data.Intn(2))})
			dis = append(dis, data.Float64())
		}
		n.Train(TrainConfig{Loss: BCE, Epochs: 20, BatchSize: 4, LR: 0.05,
			Optimizer: Adam, Lambda: 0.2, Seed: seed}, Dataset{X: xs, Y: ys, Dis: dis})
		for _, l := range n.Trunk {
			for _, w := range l.W {
				if math.IsNaN(w) || math.IsInf(w, 0) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestSGDMomentumTrains(t *testing.T) {
	src := rng.New(11)
	n := NewNet(Config{
		Spec:    Spec{In: 1, Hidden: []int{4}, HiddenAct: Tanh},
		TaskOut: 1, TaskAct: Identity,
	}, src)
	// Fit y = 2x + 1.
	var xs, ys [][]float64
	for i := 0; i < 50; i++ {
		x := float64(i)/25 - 1
		xs = append(xs, []float64{x})
		ys = append(ys, []float64{2*x + 1})
	}
	cfg := TrainConfig{Loss: MSE, Epochs: 500, BatchSize: 10, LR: 0.01,
		Optimizer: SGD, Momentum: 0.9, Seed: 11}
	loss := n.Train(cfg, Dataset{X: xs, Y: ys})
	if loss > 0.01 {
		t.Errorf("SGD final loss = %v, want < 0.01", loss)
	}
}

// BenchmarkTrainPredictor is one fit of the Section V-C predictor as
// pipeline.Fit runs it twice per cold start: a 12-48-24-(2+1) two-headed
// net, 2,000 examples (the N 4000 deployment's training split), 150 epochs
// of Adam at batch 32. The inputs are synthetic; the work per example is
// not data-dependent beyond which ReLU units are live.
func BenchmarkTrainPredictor(b *testing.B) {
	src := rng.New(46)
	var ds Dataset
	for i := 0; i < 2000; i++ {
		x := make([]float64, 12)
		for j := range x {
			x[j] = src.Normal(0, 1)
		}
		y := []float64{0, 0}
		y[src.Intn(2)] = 1
		ds.X, ds.Y, ds.Dis = append(ds.X, x), append(ds.Y, y), append(ds.Dis, src.Float64())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net := NewNet(Config{
			Spec:    Spec{In: 12, Hidden: []int{48, 24}},
			TaskOut: 2, TaskAct: Softmax, WithHead2: true,
		}, rng.New(47))
		net.Train(TrainConfig{
			Loss: CE, Epochs: 150, BatchSize: 32, LR: 0.01,
			Optimizer: Adam, Lambda: 0.2, Seed: 47,
		}, ds)
	}
}
