package models

import (
	"fmt"

	"repro/internal/ag"
	"repro/internal/fw"
	"repro/internal/nn"
	"repro/internal/profile"
	"repro/internal/tensor"
)

// GIN is Xu et al.'s graph isomorphism network (Eq. 3 of the paper):
// h' = sigma(W * sigma(BN(V * ((1+eps)h + sum_j h_j)))) with sum neighbor
// aggregation (neighbor_aggr_GIN: sum) and, per Table III, a learnable
// epsilon for the graph task.
type GIN struct {
	be   fw.Backend
	cfg  Config
	v, w []*nn.Linear
	bns  []*nn.BatchNorm1d
	eps  []*ag.Parameter
	drop *nn.Dropout
	head head
}

// NewGIN builds a GIN per cfg on the given backend.
func NewGIN(be fw.Backend, cfg Config) *GIN {
	rng := tensor.NewRNG(cfg.Seed)
	m := &GIN{be: be, cfg: cfg, drop: nn.NewDropout(cfg.Dropout, cfg.Seed^0x61)}
	for l, d := range cfg.convDims() {
		m.v = append(m.v, nn.NewLinear(rng, fmt.Sprintf("gin%d.V", l), d[0], d[1], true))
		m.w = append(m.w, nn.NewLinear(rng, fmt.Sprintf("gin%d.W", l), d[1], d[1], true))
		m.bns = append(m.bns, nn.NewBatchNorm1d(fmt.Sprintf("gin%d.bn", l), d[1]))
		m.eps = append(m.eps, ag.NewParameter(fmt.Sprintf("gin%d.eps", l), tensor.New(1)))
	}
	m.head = newHead(rng, cfg, cfg.convDims()[cfg.Layers-1][1])
	return m
}

// Name implements Model.
func (m *GIN) Name() string { return "GIN" }

// Backend implements Model.
func (m *GIN) Backend() fw.Backend { return m.be }

// Params implements Model.
func (m *GIN) Params() []*ag.Parameter {
	var ps []*ag.Parameter
	for l := range m.v {
		ps = append(ps, m.v[l].Params()...)
		ps = append(ps, m.w[l].Params()...)
		ps = append(ps, m.bns[l].Params()...)
		if m.cfg.LearnEps {
			ps = append(ps, m.eps[l])
		}
	}
	return append(ps, m.head.params()...)
}

// Forward implements Model.
func (m *GIN) Forward(g *ag.Graph, b *fw.Batch, training bool, lt *profile.LayerTimes) *ag.Node {
	x := g.Input(b.X)
	for l := range m.v {
		l := l
		timeLayerOn(g, m.be, lt, fmt.Sprintf("conv%d", l+1), func() {
			x = m.drop.Apply(g, x, training)
			agg := m.be.AggSum(g, b, x)
			var self *ag.Node
			if m.cfg.LearnEps {
				self = g.ScaleByScalar(x, g.AddScalar(g.Param(m.eps[l]), 1))
			} else {
				self = x
			}
			z := g.Add(self, agg)
			h := m.v[l].Apply(g, z)
			h = m.bns[l].Apply(g, h, training)
			h = g.ReLU(h)
			h = m.w[l].Apply(g, h)
			if l < len(m.v)-1 {
				h = g.ReLU(h)
			}
			x = h
		})
	}
	return m.head.apply(g, m.be, b, x, lt)
}
