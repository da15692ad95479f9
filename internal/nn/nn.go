// Package nn provides the neural-network layers the six GNN models are
// assembled from: Linear, BatchNorm1d, Dropout and MLP, with standard
// initializers and a parameter registry for optimizers.
package nn

import (
	"fmt"
	"math"

	"repro/internal/ag"
	"repro/internal/tensor"
)

// Module is anything owning trainable parameters.
type Module interface {
	// Params returns the module's parameters in a stable order.
	Params() []*ag.Parameter
}

// Buffer is a named non-parameter state tensor: state the optimizer never
// touches but a training-state checkpoint must persist (BatchNorm running
// statistics). The tensor is shared, not copied — a checkpoint decoder
// restores values in place.
type Buffer struct {
	Name string
	T    *tensor.Tensor
}

// BufferCarrier is the optional interface of modules and models that own
// non-parameter state tensors; checkpointing captures what it returns.
type BufferCarrier interface {
	// Buffers returns the carrier's state tensors in a stable order.
	Buffers() []Buffer
}

// RNGCarrier is the optional interface of modules and models that own
// internal random streams (dropout masks); crash-safe resume restores their
// exact positions so a resumed run draws the same masks an uninterrupted
// one would.
type RNGCarrier interface {
	// RNGStreams returns the carrier's random streams in a stable order.
	RNGStreams() []*tensor.RNG
}

// NumParams returns the total element count across parameters.
func NumParams(ps []*ag.Parameter) int {
	n := 0
	for _, p := range ps {
		n += p.Value.Size()
	}
	return n
}

// ParamBytes returns the byte footprint of the parameters (float64 storage).
func ParamBytes(ps []*ag.Parameter) int64 {
	return int64(NumParams(ps)) * 8
}

// GlorotUniform fills a [fanIn, fanOut] weight with the Glorot/Xavier uniform
// distribution, the initializer the reference GNN implementations use.
func GlorotUniform(rng *tensor.RNG, fanIn, fanOut int) *tensor.Tensor {
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	return rng.Uniform(-limit, limit, fanIn, fanOut)
}

// Linear is a fully connected layer y = xW + b.
type Linear struct {
	W *ag.Parameter
	B *ag.Parameter // nil when bias is disabled
}

// NewLinear returns a Glorot-initialized Linear layer.
func NewLinear(rng *tensor.RNG, name string, in, out int, bias bool) *Linear {
	l := &Linear{W: ag.NewParameter(name+".W", GlorotUniform(rng, in, out))}
	if bias {
		l.B = ag.NewParameter(name+".b", tensor.New(out))
	}
	return l
}

// Apply computes xW(+b) on the graph.
func (l *Linear) Apply(g *ag.Graph, x *ag.Node) *ag.Node {
	y := g.MatMul(x, g.Param(l.W))
	if l.B != nil {
		y = g.AddBias(y, g.Param(l.B))
	}
	return y
}

// Params implements Module.
func (l *Linear) Params() []*ag.Parameter {
	if l.B == nil {
		return []*ag.Parameter{l.W}
	}
	return []*ag.Parameter{l.W, l.B}
}

// BatchNorm1d normalizes features over the batch dimension with learnable
// affine parameters and running statistics for evaluation mode.
type BatchNorm1d struct {
	Gamma, Beta      *ag.Parameter
	RunMean, RunVar  *tensor.Tensor
	Momentum, Eps    float64
	featureDimension int
}

// NewBatchNorm1d returns a BatchNorm over f features with PyTorch defaults
// (momentum 0.1, eps 1e-5, running variance initialized to 1).
func NewBatchNorm1d(name string, f int) *BatchNorm1d {
	return &BatchNorm1d{
		Gamma:            ag.NewParameter(name+".gamma", tensor.Ones(f)),
		Beta:             ag.NewParameter(name+".beta", tensor.New(f)),
		RunMean:          tensor.New(f),
		RunVar:           tensor.Ones(f),
		Momentum:         0.1,
		Eps:              1e-5,
		featureDimension: f,
	}
}

// Apply normalizes x ([N,f]); training selects batch vs running statistics.
func (b *BatchNorm1d) Apply(g *ag.Graph, x *ag.Node, training bool) *ag.Node {
	if x.Value().Cols() != b.featureDimension {
		panic(fmt.Sprintf("nn: BatchNorm1d over %d features applied to %v", b.featureDimension, x.Value().Shape()))
	}
	return g.BatchNorm(x, g.Param(b.Gamma), g.Param(b.Beta), b.RunMean, b.RunVar, b.Momentum, b.Eps, training)
}

// Params implements Module.
func (b *BatchNorm1d) Params() []*ag.Parameter { return []*ag.Parameter{b.Gamma, b.Beta} }

// Buffers implements BufferCarrier: the running statistics evaluation mode
// reads are training state, not parameters, so checkpoints carry them.
func (b *BatchNorm1d) Buffers() []Buffer {
	return []Buffer{
		{Name: b.Gamma.Name + ".run_mean", T: b.RunMean},
		{Name: b.Gamma.Name + ".run_var", T: b.RunVar},
	}
}

// Dropout zeroes activations with probability P during training.
type Dropout struct {
	P   float64
	rng *tensor.RNG
}

// NewDropout returns a dropout layer with its own deterministic RNG stream.
func NewDropout(p float64, seed uint64) *Dropout {
	return &Dropout{P: p, rng: tensor.NewRNG(seed)}
}

// Apply applies dropout in training mode and is the identity otherwise.
func (d *Dropout) Apply(g *ag.Graph, x *ag.Node, training bool) *ag.Node {
	return g.Dropout(x, d.P, training, d.rng)
}

// Params implements Module (dropout has none).
func (d *Dropout) Params() []*ag.Parameter { return nil }

// RNGStreams implements RNGCarrier: the mask stream's position is training
// state a bit-identical resume must restore.
func (d *Dropout) RNGStreams() []*tensor.RNG { return []*tensor.RNG{d.rng} }

// MLP is a stack of Linear+ReLU layers with a linear output, used as the
// graph-classifier readout head in the paper's Sec. IV-B setup.
type MLP struct {
	Layers []*Linear
}

// NewMLP builds an MLP with the given layer widths (len(dims) >= 2).
func NewMLP(rng *tensor.RNG, name string, dims ...int) *MLP {
	if len(dims) < 2 {
		panic(fmt.Sprintf("nn: MLP needs at least input and output dims, got %v", dims))
	}
	m := &MLP{}
	for i := 0; i+1 < len(dims); i++ {
		m.Layers = append(m.Layers, NewLinear(rng, fmt.Sprintf("%s.%d", name, i), dims[i], dims[i+1], true))
	}
	return m
}

// Apply runs the MLP; every layer but the last is followed by ReLU.
func (m *MLP) Apply(g *ag.Graph, x *ag.Node) *ag.Node {
	for i, l := range m.Layers {
		x = l.Apply(g, x)
		if i+1 < len(m.Layers) {
			x = g.ReLU(x)
		}
	}
	return x
}

// Params implements Module.
func (m *MLP) Params() []*ag.Parameter {
	var ps []*ag.Parameter
	for _, l := range m.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}
