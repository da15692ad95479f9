package models

import (
	"fmt"

	"repro/internal/ag"
	"repro/internal/fw"
	"repro/internal/nn"
	"repro/internal/profile"
	"repro/internal/tensor"
)

// MoNet is Monti et al.'s Gaussian mixture model network with the paper's
// configuration (kernel: 2, pseudo_dim_MoNet: 2). Pseudo-coordinates are the
// degree-based u_e = (deg(src)^-1/2, deg(dst)^-1/2) pair; each kernel k
// weighs arcs by a learnable Gaussian w_k(u) and aggregates a kernel-specific
// linear transform of the source features:
//
//	h_i' = sum_k sum_{j->i} w_k(u_ij) * (W_k h_j)
//
// Under DGL the kernel weights are stored into the edge frame before
// aggregation (StoreEdgeFrame).
type MoNet struct {
	be     fw.Backend
	cfg    Config
	layers []*monetLayer
	drop   *nn.Dropout
	head   head
}

type monetLayer struct {
	w    []*nn.Linear    // per kernel
	mu   []*ag.Parameter // per kernel, [pseudoDim]
	isig []*ag.Parameter // per kernel, [pseudoDim] (inverse sigma, learnable)
	bias *ag.Parameter
}

// NewMoNet builds a MoNet per cfg on the given backend.
func NewMoNet(be fw.Backend, cfg Config) *MoNet {
	if cfg.Kernels < 1 {
		panic("models: MoNet needs at least one kernel")
	}
	const pseudoDim = 2
	rng := tensor.NewRNG(cfg.Seed)
	m := &MoNet{be: be, cfg: cfg, drop: nn.NewDropout(cfg.Dropout, cfg.Seed^0x30)}
	for l, d := range cfg.convDims() {
		layer := &monetLayer{bias: ag.NewParameter(fmt.Sprintf("monet%d.b", l), tensor.New(d[1]))}
		for k := 0; k < cfg.Kernels; k++ {
			layer.w = append(layer.w, nn.NewLinear(rng, fmt.Sprintf("monet%d.w%d", l, k), d[0], d[1], false))
			layer.mu = append(layer.mu, ag.NewParameter(fmt.Sprintf("monet%d.mu%d", l, k), rng.Uniform(0, 1, pseudoDim)))
			layer.isig = append(layer.isig, ag.NewParameter(fmt.Sprintf("monet%d.isig%d", l, k), tensor.Ones(pseudoDim)))
		}
		m.layers = append(m.layers, layer)
	}
	m.head = newHead(rng, cfg, cfg.convDims()[cfg.Layers-1][1])
	return m
}

// Name implements Model.
func (m *MoNet) Name() string { return "MoNet" }

// Backend implements Model.
func (m *MoNet) Backend() fw.Backend { return m.be }

// Params implements Model.
func (m *MoNet) Params() []*ag.Parameter {
	var ps []*ag.Parameter
	for _, l := range m.layers {
		for k := range l.w {
			ps = append(ps, l.w[k].Params()...)
			ps = append(ps, l.mu[k], l.isig[k])
		}
		ps = append(ps, l.bias)
	}
	return append(ps, m.head.params()...)
}

// Forward implements Model.
func (m *MoNet) Forward(g *ag.Graph, b *fw.Batch, training bool, lt *profile.LayerTimes) *ag.Node {
	x := g.Input(b.X)
	pseudo := b.Pseudo(g.Device())
	g.OnReplay(b.FillPseudo)
	for l, layer := range m.layers {
		layer := layer
		timeLayerOn(g, m.be, lt, fmt.Sprintf("conv%d", l+1), func() {
			x = m.drop.Apply(g, x, training)
			var sum *ag.Node
			for k := range layer.w {
				wk := g.GaussianWeight(pseudo, g.Param(layer.mu[k]), g.Param(layer.isig[k]))
				wk = m.be.StoreEdgeFrame(g, b, wk)
				hk := m.be.AggWeightedSum(g, b, layer.w[k].Apply(g, x), wk)
				if sum == nil {
					sum = hk
				} else {
					sum = g.Add(sum, hk)
				}
			}
			h := g.AddBias(sum, g.Param(layer.bias))
			if l < len(m.layers)-1 {
				h = g.ReLU(h)
			}
			x = h
		})
	}
	return m.head.apply(g, m.be, b, x, lt)
}
