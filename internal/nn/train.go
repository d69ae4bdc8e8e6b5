package nn

import (
	"fmt"
	"math"

	"schemble/internal/mathx"
	"schemble/internal/rng"
)

// Loss selects the task-head loss function.
type Loss int

// Supported task losses.
const (
	// MSE pairs with an Identity (or Sigmoid) task head; regression.
	MSE Loss = iota
	// BCE pairs with a SigmoidAct task head; independent binary targets.
	BCE
	// CE pairs with a Softmax task head; one-hot (or soft) targets. The
	// softmax+CE gradient is fused for stability.
	CE
)

func (l Loss) String() string {
	switch l {
	case MSE:
		return "mse"
	case BCE:
		return "bce"
	case CE:
		return "ce"
	default:
		return fmt.Sprintf("Loss(%d)", int(l))
	}
}

// value computes the scalar loss between prediction p and target y.
func (l Loss) value(p, y []float64) float64 {
	switch l {
	case MSE:
		var s float64
		for i := range p {
			d := p[i] - y[i]
			s += d * d
		}
		return s / float64(len(p))
	case BCE:
		var s float64
		for i := range p {
			pi := mathx.Clamp(p[i], mathx.Eps, 1-mathx.Eps)
			s += -(y[i]*math.Log(pi) + (1-y[i])*math.Log(1-pi))
		}
		return s / float64(len(p))
	case CE:
		var s float64
		for i := range p {
			pi := mathx.Clamp(p[i], mathx.Eps, 1)
			s += -y[i] * math.Log(pi)
		}
		return s
	default:
		panic("nn: unknown loss")
	}
}

// headGrad writes the gradient of the loss with respect to the head's
// *pre-activation* into gPre, exploiting fused softmax+CE and sigmoid+BCE
// forms when applicable. post is the head's activation output, act its
// activation. gOut is scratch of the same length for the unfused forms.
func (l Loss) headGrad(gPre, gOut, post, y []float64, act Activation) {
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
		act.derivChain(gPre, gOut, post, false)
	}
}

// layerGrads accumulates parameter gradients for one layer.
type layerGrads struct {
	dW, dB []float64
	// Adam / momentum state.
	mW, vW, mB, vB []float64
}

func newLayerGrads(l *Layer) *layerGrads {
	return &layerGrads{
		dW: make([]float64, len(l.W)), dB: make([]float64, len(l.B)),
		mW: make([]float64, len(l.W)), vW: make([]float64, len(l.W)),
		mB: make([]float64, len(l.B)), vB: make([]float64, len(l.B)),
	}
}

func (g *layerGrads) zero() {
	for i := range g.dW {
		g.dW[i] = 0
	}
	for i := range g.dB {
		g.dB[i] = 0
	}
}

// accumulate adds the gradients of one example: gPre is dL/d(pre), x the
// layer input. dX, if non-nil, receives dL/dx.
//
// Summation order is the contract: dB[i] and dW[i][j] receive one term per
// example, and dX[j] receives its terms in i order, exactly as the scalar
// loops this replaced. Rows with gPre[i] == 0 (ReLU-dead units, mostly)
// are skipped, which is exact and not an approximation: their terms are
// 0*x[j] and W[i][j]*0, a signed zero for finite x and W, and every sum
// here starts at +0 and so is never -0 (round-to-nearest yields -0 only
// from -0 + -0), so adding either zero returns the sum unchanged. Only a
// net that has already diverged to Inf or NaN could tell the difference.
func (g *layerGrads) accumulate(l *Layer, gPre, x, dX []float64) {
	in, out := l.In, l.Out
	x = x[:in]
	dW, dB, W := g.dW[:in*out], g.dB[:out], l.W[:in*out]
	for j := range dX {
		dX[j] = 0
	}
	for i, gi := range gPre[:out] {
		//schemble:floateq-ok exact zero is the one value whose terms are all zeros; see above
		if gi == 0 {
			continue
		}
		dB[i] += gi
		row := dW[i*in:][:len(x)]
		if dX == nil {
			for j, xj := range x {
				row[j] += gi * xj
			}
			continue
		}
		// Row-major: W's row i is read once, front to back, in the pass
		// that updates dW's row i, instead of a stride-In column walk per
		// input.
		w, dx := W[i*in:][:len(x)], dX[:len(x)]
		for j, xj := range x {
			row[j] += gi * xj
			dx[j] += w[j] * gi
		}
	}
}

// netGrads holds the full gradient/optimizer state for a Net.
type netGrads struct {
	trunk        []*layerGrads
	head1, head2 *layerGrads
	// per-layer dL/dx scratch (input-gradient of each trunk layer).
	dxs   [][]float64
	gPre1 []float64
	gPre2 []float64
	gH    []float64 // gradient at the trunk output
	gPreT [][]float64
	adamT int // Adam timestep
	// per-example scratch: the task head's dL/dpost on the unfused loss
	// paths, the difficulty head's, and its contribution to gH.
	gOut1, gOut2, dh []float64
}

func newNetGrads(n *Net) *netGrads {
	g := &netGrads{head1: newLayerGrads(n.Head1)}
	if n.Head2 != nil {
		g.head2 = newLayerGrads(n.Head2)
	}
	for _, l := range n.Trunk {
		g.trunk = append(g.trunk, newLayerGrads(l))
		g.dxs = append(g.dxs, make([]float64, l.In))
		g.gPreT = append(g.gPreT, make([]float64, l.Out))
	}
	g.gPre1 = make([]float64, n.Head1.Out)
	g.gOut1 = make([]float64, n.Head1.Out)
	width := n.Head1.In
	g.gH = make([]float64, width)
	if n.Head2 != nil {
		g.gPre2 = make([]float64, 1)
		g.gOut2 = make([]float64, 1)
		g.dh = make([]float64, width)
	}
	return g
}

func (g *netGrads) zero() {
	for _, lg := range g.trunk {
		lg.zero()
	}
	g.head1.zero()
	if g.head2 != nil {
		g.head2.zero()
	}
}

// Optimizer selects the parameter update rule.
type Optimizer int

// Supported optimizers.
const (
	SGD Optimizer = iota
	Adam
)

// TrainConfig controls Train.
type TrainConfig struct {
	Loss      Loss
	Epochs    int
	BatchSize int
	LR        float64
	Optimizer Optimizer
	Momentum  float64 // SGD only
	L2        float64 // weight decay
	// Lambda weights the difficulty head's MSE term (Eq. 2). Ignored for
	// single-headed nets. The paper uses 0.2.
	Lambda float64
	// Silent training has no effect here (no logging), reserved for parity.
	Seed uint64
}

// Dataset is the in-memory training set for Train. Dis may be nil when the
// net has no difficulty head.
type Dataset struct {
	X   [][]float64
	Y   [][]float64
	Dis []float64
}

// backwardExample accumulates the gradients for one example. Returns the
// example's total loss.
func (n *Net) backwardExample(cfg TrainConfig, x, y []float64, dis float64) float64 {
	g := n.grads
	h := n.trunkOut(x)
	n.Head1.forward(n.h1pre, n.h1, h)
	loss := cfg.Loss.value(n.h1, y)
	cfg.Loss.headGrad(g.gPre1, g.gOut1, n.h1, y, n.Head1.Act)
	g.head1.accumulate(n.Head1, g.gPre1, h, g.gH)

	if n.Head2 != nil {
		n.Head2.forward(n.h2pre, n.h2, h)
		d := n.h2[0] - dis
		loss += cfg.Lambda * d * d
		// d(lambda*(p-t)^2)/dpost = 2*lambda*(p-t); chain through the act.
		g.gOut2[0] = 2 * cfg.Lambda * d
		n.Head2.Act.derivChain(g.gPre2, g.gOut2, n.h2, false)
		g.head2.accumulate(n.Head2, g.gPre2, h, g.dh)
		for i := range g.gH {
			g.gH[i] += g.dh[i]
		}
	}

	// Backprop through the trunk.
	upstream := g.gH
	for i := len(n.Trunk) - 1; i >= 0; i-- {
		l := n.Trunk[i]
		l.Act.derivChain(g.gPreT[i], upstream, n.posts[i], false)
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
		g.trunk[i].accumulate(l, g.gPreT[i], in, dX)
		upstream = g.dxs[i]
	}
	return loss
}

// step applies one optimizer update using gradients averaged over batchN
// examples.
func (n *Net) step(cfg TrainConfig, batchN int) {
	g := n.grads
	g.adamT++
	inv := 1 / float64(batchN)
	update := func(l *Layer, lg *layerGrads) {
		applyUpdate(cfg, g.adamT, l.W, lg.dW, lg.mW, lg.vW, inv)
		applyUpdate(cfg, g.adamT, l.B, lg.dB, lg.mB, lg.vB, inv)
	}
	for i, l := range n.Trunk {
		update(l, g.trunk[i])
	}
	update(n.Head1, g.head1)
	if n.Head2 != nil {
		update(n.Head2, g.head2)
	}
}

func applyUpdate(cfg TrainConfig, t int, w, dw, m, v []float64, inv float64) {
	const (
		beta1 = 0.9
		beta2 = 0.999
		eps   = 1e-8
	)
	switch cfg.Optimizer {
	case SGD:
		for i := range w {
			grad := dw[i]*inv + cfg.L2*w[i]
			m[i] = cfg.Momentum*m[i] + grad
			w[i] -= cfg.LR * m[i]
		}
	case Adam:
		bc1 := 1 - math.Pow(beta1, float64(t))
		bc2 := 1 - math.Pow(beta2, float64(t))
		for i := range w {
			grad := dw[i]*inv + cfg.L2*w[i]
			m[i] = beta1*m[i] + (1-beta1)*grad
			v[i] = beta2*v[i] + (1-beta2)*grad*grad
			w[i] -= cfg.LR * (m[i] / bc1) / (math.Sqrt(v[i]/bc2) + eps)
		}
	default:
		panic("nn: unknown optimizer")
	}
}

// Train fits the network on ds and returns the mean training loss of the
// final epoch. Mini-batches are reshuffled every epoch with a generator
// seeded from cfg.Seed, so training is deterministic.
func (n *Net) Train(cfg TrainConfig, ds Dataset) float64 {
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
				epochLoss += n.backwardExample(cfg, ds.X[idx], ds.Y[idx], dis)
			}
			n.step(cfg, end-start)
		}
		finalLoss = epochLoss / float64(len(order))
	}
	return finalLoss
}
