package models

import (
	"fmt"

	"repro/internal/ag"
	"repro/internal/fw"
	"repro/internal/nn"
	"repro/internal/profile"
	"repro/internal/tensor"
)

// MLPBaseline is the graph-agnostic baseline of the benchmark suite the
// paper builds on (Dwivedi et al. 2020): per-node MLP layers with no message
// passing, so any accuracy gap to the GNNs quantifies how much the graph
// structure contributes. It is not one of the paper's six profiled models
// but is included as the customary reference point.
type MLPBaseline struct {
	be   fw.Backend
	cfg  Config
	lins []*nn.Linear
	drop *nn.Dropout
	head head
}

// NewMLPBaseline builds the baseline per cfg on the given backend.
func NewMLPBaseline(be fw.Backend, cfg Config) *MLPBaseline {
	rng := tensor.NewRNG(cfg.Seed)
	m := &MLPBaseline{be: be, cfg: cfg, drop: nn.NewDropout(cfg.Dropout, cfg.Seed^0x3e)}
	for l, d := range cfg.convDims() {
		m.lins = append(m.lins, nn.NewLinear(rng, fmt.Sprintf("mlp%d", l), d[0], d[1], true))
	}
	m.head = newHead(rng, cfg, cfg.convDims()[cfg.Layers-1][1])
	return m
}

// Name implements Model.
func (m *MLPBaseline) Name() string { return "MLP" }

// Backend implements Model.
func (m *MLPBaseline) Backend() fw.Backend { return m.be }

// Params implements Model.
func (m *MLPBaseline) Params() []*ag.Parameter {
	var ps []*ag.Parameter
	for _, l := range m.lins {
		ps = append(ps, l.Params()...)
	}
	return append(ps, m.head.params()...)
}

// Forward implements Model.
func (m *MLPBaseline) Forward(g *ag.Graph, b *fw.Batch, training bool, lt *profile.LayerTimes) *ag.Node {
	x := g.Input(b.X)
	for l, lin := range m.lins {
		l, lin := l, lin
		timeLayerOn(g, m.be, lt, fmt.Sprintf("conv%d", l+1), func() {
			x = m.drop.Apply(g, x, training)
			x = lin.Apply(g, x)
			if l < len(m.lins)-1 {
				x = g.ReLU(x)
			}
		})
	}
	return m.head.apply(g, m.be, b, x, lt)
}
