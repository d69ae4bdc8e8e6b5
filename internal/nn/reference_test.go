package nn

import (
	"fmt"
	"math"
	"testing"

	"schemble/internal/mathx"
	"schemble/internal/rng"
)

// The ref* functions below are the dense kernels and the training loop as
// they stood before the order-preserving rewrite, kept verbatim (receivers
// became first parameters and calls go to the ref* twin, nothing else) as the identity reference: one
// dependent add chain per output row, no zero-skip, the stride-In column
// walk for dX, a branch per ReLU unit, and a heap allocation wherever the
// originals had one. Production training must reproduce their every bit.

func refApply(a Activation, post, pre []float64) {
	switch a {
	case Identity:
		copy(post, pre)
	case ReLU:
		for i, v := range pre {
			if v > 0 {
				post[i] = v
			} else {
				post[i] = 0
			}
		}
	case Tanh:
		for i, v := range pre {
			post[i] = math.Tanh(v)
		}
	case SigmoidAct:
		for i, v := range pre {
			post[i] = mathx.Sigmoid(v)
		}
	case Softmax:
		mathx.SoftmaxInto(post, pre)
	default:
		panic("nn: unknown activation")
	}
}

func refDerivChain(a Activation, gPre, gOut, post []float64, softmaxCombined bool) {
	switch a {
	case Identity:
		copy(gPre, gOut)
	case ReLU:
		for i := range gOut {
			if post[i] > 0 {
				gPre[i] = gOut[i]
			} else {
				gPre[i] = 0
			}
		}
	case Tanh:
		for i := range gOut {
			gPre[i] = gOut[i] * (1 - post[i]*post[i])
		}
	case SigmoidAct:
		for i := range gOut {
			gPre[i] = gOut[i] * post[i] * (1 - post[i])
		}
	case Softmax:
		if softmaxCombined {
			copy(gPre, gOut)
			return
		}
		// Full softmax Jacobian: gPre_i = post_i * (gOut_i - sum_j gOut_j post_j)
		var dot float64
		for j := range gOut {
			dot += gOut[j] * post[j]
		}
		for i := range gOut {
			gPre[i] = post[i] * (gOut[i] - dot)
		}
	default:
		panic("nn: unknown activation")
	}
}

func refForward(l *Layer, pre, post, x []float64) {
	for i := 0; i < l.Out; i++ {
		s := l.B[i]
		row := l.W[i*l.In : (i+1)*l.In]
		for j, xj := range x {
			s += row[j] * xj
		}
		pre[i] = s
	}
	refApply(l.Act, post, pre)
}

func refTrunkOut(n *Net, x []float64) []float64 {
	h := x
	for i, l := range n.Trunk {
		refForward(l, n.pres[i], n.posts[i], h)
		h = n.posts[i]
	}
	return h
}

func refHeadGrad(l Loss, gPre, post, y []float64, act Activation) {
	switch {
	case l == CE && act == Softmax:
		for i := range post {
			gPre[i] = post[i] - y[i]
		}
	case l == BCE && act == SigmoidAct:
		k := float64(len(post))
		for i := range post {
			gPre[i] = (post[i] - y[i]) / k
		}
	default:
		// Generic: dL/dpost then chain through the activation.
		gOut := make([]float64, len(post))
		switch l {
		case MSE:
			k := float64(len(post))
			for i := range post {
				gOut[i] = 2 * (post[i] - y[i]) / k
			}
		case BCE:
			k := float64(len(post))
			for i := range post {
				pi := mathx.Clamp(post[i], mathx.Eps, 1-mathx.Eps)
				gOut[i] = (pi - y[i]) / (pi * (1 - pi)) / k
			}
		case CE:
			for i := range post {
				pi := mathx.Clamp(post[i], mathx.Eps, 1)
				gOut[i] = -y[i] / pi
			}
		}
		refDerivChain(act, gPre, gOut, post, false)
	}
}

func refAccumulate(g *layerGrads, l *Layer, gPre, x, dX []float64) {
	for i := 0; i < l.Out; i++ {
		gi := gPre[i]
		g.dB[i] += gi
		row := g.dW[i*l.In : (i+1)*l.In]
		for j, xj := range x {
			row[j] += gi * xj
		}
	}
	if dX != nil {
		for j := 0; j < l.In; j++ {
			var s float64
			for i := 0; i < l.Out; i++ {
				s += l.W[i*l.In+j] * gPre[i]
			}
			dX[j] = s
		}
	}
}

func refBackwardExample(n *Net, cfg TrainConfig, x, y []float64, dis float64) float64 {
	g := n.grads
	h := refTrunkOut(n, x)
	refForward(n.Head1, n.h1pre, n.h1, h)
	loss := cfg.Loss.value(n.h1, y)
	refHeadGrad(cfg.Loss, g.gPre1, n.h1, y, n.Head1.Act)
	for i := range g.gH {
		g.gH[i] = 0
	}
	refAccumulate(g.head1, n.Head1, g.gPre1, h, g.gH)

	if n.Head2 != nil {
		refForward(n.Head2, n.h2pre, n.h2, h)
		d := n.h2[0] - dis
		loss += cfg.Lambda * d * d
		// d(lambda*(p-t)^2)/dpost = 2*lambda*(p-t); chain through the act.
		gOut := []float64{2 * cfg.Lambda * d}
		refDerivChain(n.Head2.Act, g.gPre2, gOut, n.h2, false)
		dh := make([]float64, len(h))
		refAccumulate(g.head2, n.Head2, g.gPre2, h, dh)
		for i := range g.gH {
			g.gH[i] += dh[i]
		}
	}

	// Backprop through the trunk.
	upstream := g.gH
	for i := len(n.Trunk) - 1; i >= 0; i-- {
		l := n.Trunk[i]
		refDerivChain(l.Act, g.gPreT[i], upstream, n.posts[i], false)
		var in []float64
		if i == 0 {
			in = x
		} else {
			in = n.posts[i-1]
		}
		var dX []float64
		if i > 0 {
			dX = g.dxs[i]
		}
		refAccumulate(g.trunk[i], l, g.gPreT[i], in, dX)
		upstream = g.dxs[i]
	}
	return loss
}

func refTrain(n *Net, cfg TrainConfig, ds Dataset) float64 {
	if len(ds.X) == 0 {
		return 0
	}
	if len(ds.X) != len(ds.Y) {
		panic("nn: X/Y length mismatch")
	}
	if n.Head2 != nil && len(ds.Dis) != len(ds.X) {
		panic("nn: two-headed net requires Dis targets")
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 32
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 1
	}
	if cfg.LR <= 0 {
		cfg.LR = 0.01
	}
	src := rng.New(cfg.Seed + 0x5eed)
	order := make([]int, len(ds.X))
	for i := range order {
		order[i] = i
	}
	var finalLoss float64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		src.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var epochLoss float64
		for start := 0; start < len(order); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(order) {
				end = len(order)
			}
			n.grads.zero()
			for _, idx := range order[start:end] {
				var dis float64
				if n.Head2 != nil {
					dis = ds.Dis[idx]
				}
				epochLoss += refBackwardExample(n, cfg, ds.X[idx], ds.Y[idx], dis)
			}
			n.step(cfg, end-start)
		}
		finalLoss = epochLoss / float64(len(order))
	}
	return finalLoss
}

// identityCase is one seeded training problem; the same case builds the
// reference net and the production net from equal generators.
type identityCase struct {
	name string
	net  Config
	tc   TrainConfig
	ds   Dataset
	seed uint64
	// gain multiplies the initial trunk weights of both nets, so that
	// hidden layers behind a bounded activation saturate as well.
	gain float64
}

// identityCases spans {ReLU, Tanh, Sigmoid} trunks x four loss/head
// pairings (two fused, two through the generic dL/dpost path) x
// {SGD+momentum, Adam} x one/two heads, five seeds each. Every seed draws
// its own widths (mostly not multiples of four, so the unrolled loops'
// tails run), zero to two hidden layers, a batch size that leaves a ragged
// last batch, L2 on or off, and an input scale: small inputs leave about
// half the ReLU units dead (the zero-skip), large ones saturate Tanh and
// Sigmoid (with boosted initial trunk weights, in every hidden layer)
// until their derivative is tiny or underflows to a signed zero. Some
// features are exactly +0 or -0.
func identityCases() []identityCase {
	widths := []int{1, 2, 3, 5, 6, 7, 9, 10, 11, 13, 4, 8}
	heads := []struct {
		loss Loss
		act  Activation
	}{{CE, Softmax}, {BCE, SigmoidAct}, {MSE, Identity}, {MSE, SigmoidAct}}
	var cases []identityCase
	for _, hidden := range []Activation{ReLU, Tanh, SigmoidAct} {
		for _, hd := range heads {
			for _, opt := range []Optimizer{SGD, Adam} {
				for _, two := range []bool{false, true} {
					for rep := uint64(0); rep < 5; rep++ {
						seed := uint64(len(cases))*7919 + 17
						src := rng.New(seed)
						c := identityCase{seed: seed}
						c.net = Config{
							Spec:      Spec{In: widths[src.Intn(len(widths))], HiddenAct: hidden},
							TaskOut:   1 + src.Intn(5),
							TaskAct:   hd.act,
							WithHead2: two,
						}
						if hd.loss == CE && c.net.TaskOut == 1 {
							c.net.TaskOut = 3
						}
						for k := int(rep % 3); k > 0; k-- {
							c.net.Spec.Hidden = append(c.net.Spec.Hidden, widths[src.Intn(len(widths))])
						}
						batch := 3 + src.Intn(6)
						n := 4*batch + 1 + src.Intn(batch-1) // never a whole number of batches
						c.tc = TrainConfig{
							Loss: hd.loss, Epochs: 3, BatchSize: batch, LR: 0.02,
							Optimizer: opt, Momentum: 0.9, Lambda: 0.2, Seed: seed,
						}
						if rep%2 == 1 {
							c.tc.L2 = 1e-3
						}
						scale := 1.0
						c.gain = 1
						if rep%2 == 0 && rep > 0 && hidden != ReLU { // an unbounded trunk diverges on these
							scale, c.gain = 25, 8
						}
						for i := 0; i < n; i++ {
							x := make([]float64, c.net.Spec.In)
							for j := range x {
								switch src.Intn(8) {
								case 0:
									x[j] = 0
								case 1:
									x[j] = math.Copysign(0, -1)
								default:
									x[j] = src.Normal(0, scale)
								}
							}
							y := make([]float64, c.net.TaskOut)
							switch hd.loss {
							case CE:
								y[src.Intn(len(y))] = 1
							case BCE:
								for j := range y {
									y[j] = float64(src.Intn(2))
								}
							default:
								for j := range y {
									y[j] = src.Normal(0, 1)
								}
							}
							c.ds.X = append(c.ds.X, x)
							c.ds.Y = append(c.ds.Y, y)
							c.ds.Dis = append(c.ds.Dis, src.Float64())
						}
						c.name = fmt.Sprintf("%v-%v-%v-opt%d-heads%d-rep%d-in%d-hidden%v",
							hidden, hd.loss, hd.act, opt, 1+btoi(two), rep, c.net.Spec.In, c.net.Spec.Hidden)
						cases = append(cases, c)
					}
				}
			}
		}
	}
	return cases
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func layersOf(n *Net) []*Layer {
	ls := append([]*Layer(nil), n.Trunk...)
	ls = append(ls, n.Head1)
	if n.Head2 != nil {
		ls = append(ls, n.Head2)
	}
	return ls
}

// diffBits reports the first position at which two vectors differ in bit
// pattern (so +0 vs -0 and NaN payloads count), or -1.
func diffBits(a, b []float64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestTrainBitIdenticalToReference trains the reference loops and the
// production kernels side by side and requires every weight, every bias
// and the returned loss to agree in every bit.
func TestTrainBitIdenticalToReference(t *testing.T) {
	cases := identityCases()
	if len(cases) < 200 {
		t.Fatalf("only %d configurations, want >= 200", len(cases))
	}
	var skipped, tiny, tails int
	for _, c := range cases {
		ref := NewNet(c.net, rng.New(c.seed))
		got := NewNet(c.net, rng.New(c.seed))
		for _, n := range []*Net{ref, got} {
			for _, l := range n.Trunk {
				for i := range l.W {
					l.W[i] *= c.gain
				}
			}
		}
		wantLoss := refTrain(ref, c.tc, c.ds)
		gotLoss := got.Train(c.tc, c.ds)
		if math.Float64bits(wantLoss) != math.Float64bits(gotLoss) {
			t.Errorf("%s: loss %v (%#x), reference %v (%#x)", c.name,
				gotLoss, math.Float64bits(gotLoss), wantLoss, math.Float64bits(wantLoss))
		}
		if math.IsNaN(wantLoss) || math.IsInf(wantLoss, 0) {
			t.Errorf("%s: reference diverged (loss %v); the case proves nothing", c.name, wantLoss)
		}
		rl, gl := layersOf(ref), layersOf(got)
		for k := range rl {
			if i := diffBits(rl[k].W, gl[k].W); i >= 0 {
				t.Errorf("%s: layer %d W[%d] = %v, reference %v", c.name, k, i, gl[k].W[i], rl[k].W[i])
			}
			if i := diffBits(rl[k].B, gl[k].B); i >= 0 {
				t.Errorf("%s: layer %d B[%d] = %v, reference %v", c.name, k, i, gl[k].B[i], rl[k].B[i])
			}
			if rl[k].In%4 != 0 || rl[k].Out%4 != 0 {
				tails++
			}
		}
		// Inference shares the forward kernel: the trained nets must also
		// answer alike, through Forward and through the reference loop.
		for _, x := range c.ds.X[:4] {
			h := refTrunkOut(ref, x)
			refForward(ref.Head1, ref.h1pre, ref.h1, h)
			out, _ := got.Forward(x)
			if i := diffBits(ref.h1, out); i >= 0 {
				t.Errorf("%s: Forward out[%d] = %v, reference %v", c.name, i, out[i], ref.h1[i])
			}
		}
		// Count what the sweep exercised, on the trained production net.
		got.grads.zero()
		for i, x := range c.ds.X {
			got.backwardExample(c.tc, x, c.ds.Y[i], c.ds.Dis[i])
			for _, gp := range got.grads.gPreT {
				for _, v := range gp {
					if v == 0 {
						skipped++
					} else if math.Abs(v) < 1e-9 {
						tiny++
					}
				}
			}
		}
	}
	if tiny < 1000 {
		t.Errorf("only %d pre-activation gradients that are tiny but not zero: a skip wider than exact zero would pass", tiny)
	}
	if skipped < 1000 {
		t.Errorf("only %d zero pre-activation gradients seen: the zero-skip is barely exercised", skipped)
	}
	if tails < 200 {
		t.Errorf("only %d layers with a width not divisible by 4: the unrolled loops' tails are barely exercised", tails)
	}
}

// TestReLUMatchesBranchOnEdgeValues covers what no finite training run
// reaches: the masked ReLU must treat signed zeros, infinities, subnormals
// and NaNs of either sign, as value and as gate, exactly as the branch did.
func TestReLUMatchesBranchOnEdgeValues(t *testing.T) {
	edge := []float64{0, math.Copysign(0, -1), 1, -1, 5e-324, -5e-324,
		math.Inf(1), math.Inf(-1), math.NaN(), math.Float64frombits(0xFFFFFFFFFFFFFFFF),
		math.Float64frombits(0x7FFFFFFFFFFFFFFF)}
	want, got := make([]float64, len(edge)), make([]float64, len(edge))
	refApply(ReLU, want, edge)
	ReLU.apply(got, edge)
	if i := diffBits(want, got); i >= 0 {
		t.Errorf("apply(%v) = %v, reference %v", edge[i], got[i], want[i])
	}
	for _, g := range edge {
		gOut := make([]float64, len(edge))
		for i := range gOut {
			gOut[i] = g
		}
		refDerivChain(ReLU, want, gOut, edge, false)
		ReLU.derivChain(got, gOut, edge, false)
		if i := diffBits(want, got); i >= 0 {
			t.Errorf("derivChain(g=%v, post=%v) = %v, reference %v", g, edge[i], got[i], want[i])
		}
	}
}

// TestTrainStepDoesNotAllocate pins that one example's backward pass plus
// one optimizer step touch only the net's own scratch, on the fused and on
// the generic loss path.
func TestTrainStepDoesNotAllocate(t *testing.T) {
	for _, c := range []struct {
		loss Loss
		act  Activation
	}{{CE, Softmax}, {MSE, SigmoidAct}} {
		n := NewNet(Config{
			Spec:    Spec{In: 12, Hidden: []int{48, 24}},
			TaskOut: 2, TaskAct: c.act, WithHead2: true,
		}, rng.New(1))
		cfg := TrainConfig{Loss: c.loss, LR: 0.01, Optimizer: Adam, Lambda: 0.2}
		src := rng.New(2)
		x := make([]float64, 12)
		for i := range x {
			x[i] = src.Normal(0, 1)
		}
		y := []float64{1, 0}
		if avg := testing.AllocsPerRun(100, func() {
			n.grads.zero()
			n.backwardExample(cfg, x, y, 0.4)
			n.step(cfg, 1)
		}); avg != 0 {
			t.Errorf("%v+%v: backwardExample+step allocates %v times, want 0", c.loss, c.act, avg)
		}
	}
}
