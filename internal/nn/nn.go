// Package nn is a small from-scratch neural network library: fully connected
// layers, the usual activations, MSE / binary and categorical cross-entropy
// losses, SGD-with-momentum and Adam optimizers, and a two-headed network
// type implementing the joint loss of Schemble's discrepancy predictor
// (task loss + lambda * MSE on the difficulty head, Eq. 2 of the paper).
//
// It exists because the paper's discrepancy predictor and gating baseline
// are lightweight networks that must actually be *trained* for the
// reproduction to be honest; no external ML dependency is available.
package nn

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"

	"schemble/internal/mathx"
	"schemble/internal/rng"
)

// Activation identifies a nonlinearity applied elementwise after a dense
// layer (Softmax is applied across the layer's outputs).
type Activation int

// Supported activations.
const (
	Identity Activation = iota
	ReLU
	Tanh
	SigmoidAct
	Softmax
)

func (a Activation) String() string {
	switch a {
	case Identity:
		return "identity"
	case ReLU:
		return "relu"
	case Tanh:
		return "tanh"
	case SigmoidAct:
		return "sigmoid"
	case Softmax:
		return "softmax"
	default:
		return fmt.Sprintf("Activation(%d)", int(a))
	}
}

// keepIfPositive returns v when gate > 0 and +0 otherwise (so also for a
// NaN gate), as `if gate > 0 { return v }; return 0` does, but as a mask
// the compiler turns into a conditional move: which ReLU units are live is
// close to a coin flip per example, and a mispredicted branch per unit
// cost more than the rest of the activation.
func keepIfPositive(v, gate float64) float64 {
	var mask uint64
	if gate > 0 {
		mask = ^uint64(0)
	}
	return math.Float64frombits(math.Float64bits(v) & mask)
}

// apply computes the activation of pre into post (same length).
func (a Activation) apply(post, pre []float64) {
	switch a {
	case Identity:
		copy(post, pre)
	case ReLU:
		post = post[:len(pre)]
		for i, v := range pre {
			post[i] = keepIfPositive(v, v)
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

// derivChain multiplies the upstream gradient gOut by the activation's
// Jacobian (diagonal for elementwise activations) and writes the result into
// gPre. post holds the forward activations. Softmax is handled specially and
// only supports being paired with cross-entropy via Net's loss plumbing,
// where the combined gradient (p - y) is supplied directly; in that case the
// caller passes the combined gradient and derivChain is the identity.
func (a Activation) derivChain(gPre, gOut, post []float64, softmaxCombined bool) {
	switch a {
	case Identity:
		copy(gPre, gOut)
	case ReLU:
		gPre, post = gPre[:len(gOut)], post[:len(gOut)]
		for i, g := range gOut {
			gPre[i] = keepIfPositive(g, post[i])
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

// Layer is one dense layer: out = act(W x + b). Weights are stored row-major
// (W[i*In+j] connects input j to output i).
type Layer struct {
	In, Out int
	Act     Activation
	W       []float64
	B       []float64
}

// NewLayer allocates a layer with He/Xavier-style initialization drawn from
// src (He for ReLU, Xavier otherwise).
func NewLayer(in, out int, act Activation, src *rng.Source) *Layer {
	l := &Layer{In: in, Out: out, Act: act,
		W: make([]float64, in*out), B: make([]float64, out)}
	scale := math.Sqrt(1 / float64(in))
	if act == ReLU {
		scale = math.Sqrt(2 / float64(in))
	}
	for i := range l.W {
		l.W[i] = src.Normal(0, scale)
	}
	return l
}

// forward computes pre = Wx + b and post = act(pre). pre and post must be
// length Out, x length In.
//
// Four output rows are computed per pass over x so that four independent
// add chains are in flight instead of one latency-bound chain; each row
// still starts from its bias and adds its terms for j = 0..In-1 in that
// order, so every pre[i] has the bits the one-row-at-a-time loop gave it.
func (l *Layer) forward(pre, post, x []float64) {
	in, out := l.In, l.Out
	x = x[:in]
	i := 0
	for ; i+4 <= out; i += 4 {
		dot4(pre[i:i+4], l.B[i:i+4], l.W[i*in:(i+4)*in], x)
	}
	for ; i < out; i++ {
		s := l.B[i]
		row := l.W[i*in:][:len(x)]
		for j, xj := range x {
			s += row[j] * xj
		}
		pre[i] = s
	}
	l.Act.apply(post, pre)
}

// dot4 is forward's kernel: four rows of w (each len(x) long) against x.
// It is its own function so that only what the inner loop needs is live in
// it; inlined into forward, the loop counter and two row pointers spill.
//
//go:noinline
func dot4(pre, b, w, x []float64) {
	n := len(x)
	r0, r1, r2, r3 := w[:n], w[n:][:n], w[2*n:][:n], w[3*n:][:n]
	s0, s1, s2, s3 := b[0], b[1], b[2], b[3]
	for j, xj := range x {
		s0 += r0[j] * xj
		s1 += r1[j] * xj
		s2 += r2[j] * xj
		s3 += r3[j] * xj
	}
	pre[0], pre[1], pre[2], pre[3] = s0, s1, s2, s3
}

// Spec describes a feed-forward trunk as a sequence of dense layers.
type Spec struct {
	In     int
	Hidden []int
	// HiddenAct applies to every hidden layer; defaults to ReLU.
	HiddenAct Activation
}

// Net is a feed-forward network with one or two output heads sharing a
// trunk. A Net reuses internal scratch buffers and is NOT safe for
// concurrent use; callers serving from multiple goroutines must
// synchronize (discrepancy.Predictor does). Head 1 is the task head (classification or regression); head 2, if
// present, is the scalar discrepancy head trained with MSE. This mirrors the
// architecture in Section V-C of the paper: a shared feature extractor whose
// final hidden representation feeds both outputs.
type Net struct {
	Trunk []*Layer
	Head1 *Layer // task head
	Head2 *Layer // optional difficulty head (Out == 1)

	// scratch buffers, sized at construction; reused across calls.
	pres, posts [][]float64
	h1pre, h1   []float64
	h2pre, h2   []float64
	grads       *netGrads
}

// Config configures NewNet.
type Config struct {
	Spec      Spec
	TaskOut   int        // width of the task head
	TaskAct   Activation // task head activation (Softmax for classification, Identity/SigmoidAct otherwise)
	WithHead2 bool       // attach the scalar difficulty head
	Head2Act  Activation // difficulty head activation; defaults to SigmoidAct
}

// NewNet builds a network from cfg, drawing initial weights from src.
func NewNet(cfg Config, src *rng.Source) *Net {
	if cfg.TaskOut <= 0 {
		panic("nn: TaskOut must be positive")
	}
	hiddenAct := cfg.Spec.HiddenAct
	if hiddenAct == Identity && len(cfg.Spec.Hidden) > 0 {
		hiddenAct = ReLU
	}
	n := &Net{}
	in := cfg.Spec.In
	for _, h := range cfg.Spec.Hidden {
		n.Trunk = append(n.Trunk, NewLayer(in, h, hiddenAct, src))
		in = h
	}
	n.Head1 = NewLayer(in, cfg.TaskOut, cfg.TaskAct, src)
	if cfg.WithHead2 {
		act := cfg.Head2Act
		if act == Identity {
			act = SigmoidAct
		}
		n.Head2 = NewLayer(in, 1, act, src)
	}
	n.allocScratch()
	return n
}

func (n *Net) allocScratch() {
	n.pres = n.pres[:0]
	n.posts = n.posts[:0]
	for _, l := range n.Trunk {
		n.pres = append(n.pres, make([]float64, l.Out))
		n.posts = append(n.posts, make([]float64, l.Out))
	}
	n.h1pre = make([]float64, n.Head1.Out)
	n.h1 = make([]float64, n.Head1.Out)
	if n.Head2 != nil {
		n.h2pre = make([]float64, 1)
		n.h2 = make([]float64, 1)
	}
	n.grads = newNetGrads(n)
}

// trunkOut runs the trunk forward and returns the final hidden activation
// (or x itself when there are no hidden layers).
func (n *Net) trunkOut(x []float64) []float64 {
	h := x
	for i, l := range n.Trunk {
		l.forward(n.pres[i], n.posts[i], h)
		h = n.posts[i]
	}
	return h
}

// Forward runs the network on x and returns the task output and, when the
// difficulty head exists, the predicted discrepancy score. The returned
// slices are owned by the Net and overwritten by the next call; copy them if
// they must persist.
func (n *Net) Forward(x []float64) (task []float64, dis float64) {
	h := n.trunkOut(x)
	n.Head1.forward(n.h1pre, n.h1, h)
	if n.Head2 != nil {
		n.Head2.forward(n.h2pre, n.h2, h)
		dis = n.h2[0]
	}
	return n.h1, dis
}

// Predict returns a copy of the task head's output for x.
func (n *Net) Predict(x []float64) []float64 {
	out, _ := n.Forward(x)
	cp := make([]float64, len(out))
	copy(cp, out)
	return cp
}

// PredictScore returns the difficulty head's output for x; it panics when
// the net has no second head.
func (n *Net) PredictScore(x []float64) float64 {
	if n.Head2 == nil {
		panic("nn: PredictScore on single-headed net")
	}
	_, dis := n.Forward(x)
	return dis
}

// NumParams returns the total number of trainable parameters.
func (n *Net) NumParams() int {
	total := 0
	for _, l := range n.Trunk {
		total += len(l.W) + len(l.B)
	}
	total += len(n.Head1.W) + len(n.Head1.B)
	if n.Head2 != nil {
		total += len(n.Head2.W) + len(n.Head2.B)
	}
	return total
}

// gobNet mirrors Net's persistent state for serialization.
type gobNet struct {
	Trunk []*Layer
	Head1 *Layer
	Head2 *Layer
}

// MarshalBinary serializes the network weights with encoding/gob.
func (n *Net) MarshalBinary() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(gobNet{n.Trunk, n.Head1, n.Head2}); err != nil {
		return nil, fmt.Errorf("nn: encode: %w", err)
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary restores network weights serialized by MarshalBinary.
func (n *Net) UnmarshalBinary(data []byte) error {
	var g gobNet
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&g); err != nil {
		return fmt.Errorf("nn: decode: %w", err)
	}
	n.Trunk, n.Head1, n.Head2 = g.Trunk, g.Head1, g.Head2
	n.allocScratch()
	return nil
}

// RestoreNet rebuilds a network from MarshalBinary output.
func RestoreNet(data []byte) (*Net, error) {
	n := &Net{}
	if err := n.UnmarshalBinary(data); err != nil {
		return nil, err
	}
	return n, nil
}
