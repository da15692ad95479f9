package models

import (
	"fmt"

	"repro/internal/ag"
	"repro/internal/fw"
	"repro/internal/nn"
	"repro/internal/profile"
	"repro/internal/tensor"
)

// GCN is Kipf & Welling's graph convolutional network with symmetric degree
// normalization. The two backends compute the identical layer through their
// frameworks' real code paths:
//
//   - PyG (GCNConv): normalization folded into per-edge weights
//     (deg_s*deg_d)^-1/2, applied in one weighted scatter pass;
//   - DGL (GraphConv, norm="both"): features scaled by deg^-1/2 before and
//     after a fused GSpMM sum — two extra full-width kernels per layer, the
//     "normalizing node features ... before and after updating" cost the
//     paper measures (Sec. IV-C).
type GCN struct {
	be     fw.Backend
	cfg    Config
	lins   []*nn.Linear
	biases []*ag.Parameter
	drop   *nn.Dropout
	head   head
}

// NewGCN builds a GCN per cfg on the given backend.
func NewGCN(be fw.Backend, cfg Config) *GCN {
	rng := tensor.NewRNG(cfg.Seed)
	m := &GCN{be: be, cfg: cfg, drop: nn.NewDropout(cfg.Dropout, cfg.Seed^0xd0)}
	for l, d := range cfg.convDims() {
		m.lins = append(m.lins, nn.NewLinear(rng, fmt.Sprintf("gcn%d", l), d[0], d[1], false))
		m.biases = append(m.biases, ag.NewParameter(fmt.Sprintf("gcn%d.b", l), tensor.New(d[1])))
	}
	m.head = newHead(rng, cfg, cfg.convDims()[cfg.Layers-1][1])
	return m
}

// Name implements Model.
func (m *GCN) Name() string { return "GCN" }

// Backend implements Model.
func (m *GCN) Backend() fw.Backend { return m.be }

// Params implements Model.
func (m *GCN) Params() []*ag.Parameter {
	var ps []*ag.Parameter
	for l := range m.lins {
		ps = append(ps, m.lins[l].Params()...)
		ps = append(ps, m.biases[l])
	}
	return append(ps, m.head.params()...)
}

// Forward implements Model.
func (m *GCN) Forward(g *ag.Graph, b *fw.Batch, training bool, lt *profile.LayerTimes) *ag.Node {
	x := g.Input(b.X)
	var invDeg *tensor.Tensor
	var edgeW *ag.Node
	if m.be.GCNNormalizeBothSides() {
		invDeg = invSqrtDegrees(b)
		g.OnReplay(func() { fillInvSqrtDegrees(invDeg, b) })
	} else {
		ew := gcnEdgeWeights(b)
		edgeW = g.Input(ew)
		g.OnReplay(func() { fillGCNEdgeWeights(ew, b) })
	}
	for l := range m.lins {
		l := l
		timeLayerOn(g, m.be, lt, fmt.Sprintf("conv%d", l+1), func() {
			x = m.drop.Apply(g, x, training)
			var scale *tensor.Tensor
			if m.be.GCNNormalizeBothSides() {
				// DGL: norm -> transform -> fused aggregate -> norm.
				h := g.ScaleRows(x, invDeg)
				h = m.lins[l].Apply(g, h)
				x = m.be.AggSum(g, b, h)
				scale = invDeg
			} else {
				// PyG: transform -> one weighted scatter pass.
				h := m.lins[l].Apply(g, x)
				x = m.be.AggWeightedSum(g, b, h, edgeW)
			}
			// (DGL's norm ->) bias -> ReLU between layers: on an inference
			// tape, inside the aggregation's kernel.
			x = g.Epilogue(x, scale, g.Param(m.biases[l]), l < len(m.lins)-1)
		})
	}
	return m.head.apply(g, m.be, b, x, lt)
}
