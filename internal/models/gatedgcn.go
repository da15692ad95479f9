package models

import (
	"fmt"

	"repro/internal/ag"
	"repro/internal/fw"
	"repro/internal/nn"
	"repro/internal/profile"
	"repro/internal/tensor"
)

// GatedGCN is Bresson & Laurent's residual gated graph ConvNet. Node and
// (where maintained) edge states live at a constant Hidden width: an input
// embedding lifts raw features, L gated layers follow with batch norm, ReLU
// and residual connections, and a task head finishes (a linear classifier
// per node, or readout+MLP per graph).
//
// The update per layer is
//
//	e_ij  = D h_i + E h_j (+ C e_ij under DGL)
//	eta   = sigmoid(e_ij)
//	h_i'  = A h_i + (sum_j eta_ij (x) B h_j) / (sum_j eta_ij + eps)
//
// The backend flag UpdatesEdgeFeatures reproduces the paper's key GatedGCN
// finding (Sec. IV-A obs. 3): under DGL the features of all edges are
// updated through a fully connected layer (C), batch-normalized and stored
// every layer — roughly doubling training time and dominating memory — while
// the PyG implementation (edge_feat: False) keeps gates transient.
type GatedGCN struct {
	be        fw.Backend
	cfg       Config
	embedH    *nn.Linear
	embedE    *nn.Linear // nil unless the backend maintains edge features
	layers    []*gatedLayer
	outNode   *nn.Linear // node-task classifier
	drop      *nn.Dropout
	head      head
	edgeState bool
}

type gatedLayer struct {
	a, b, c, d, e *nn.Linear // c nil without edge state
	bnH, bnE      *nn.BatchNorm1d
}

// NewGatedGCN builds a GatedGCN per cfg on the given backend.
func NewGatedGCN(be fw.Backend, cfg Config) *GatedGCN {
	rng := tensor.NewRNG(cfg.Seed)
	h := cfg.Hidden
	m := &GatedGCN{
		be: be, cfg: cfg,
		drop:      nn.NewDropout(cfg.Dropout, cfg.Seed^0x6c),
		edgeState: be.UpdatesEdgeFeatures(),
		embedH:    nn.NewLinear(rng, "ggcn.embedH", cfg.In, h, true),
	}
	if m.edgeState {
		// Edge inputs default to a single constant channel when the dataset
		// has no edge attributes — DGL still requires the edge frame.
		m.embedE = nn.NewLinear(rng, "ggcn.embedE", 1, h, true)
	}
	for l := 0; l < cfg.Layers; l++ {
		layer := &gatedLayer{
			a:   nn.NewLinear(rng, fmt.Sprintf("ggcn%d.A", l), h, h, true),
			b:   nn.NewLinear(rng, fmt.Sprintf("ggcn%d.B", l), h, h, true),
			d:   nn.NewLinear(rng, fmt.Sprintf("ggcn%d.D", l), h, h, true),
			e:   nn.NewLinear(rng, fmt.Sprintf("ggcn%d.E", l), h, h, true),
			bnH: nn.NewBatchNorm1d(fmt.Sprintf("ggcn%d.bnH", l), h),
		}
		if m.edgeState {
			layer.c = nn.NewLinear(rng, fmt.Sprintf("ggcn%d.C", l), h, h, true)
			layer.bnE = nn.NewBatchNorm1d(fmt.Sprintf("ggcn%d.bnE", l), h)
		}
		m.layers = append(m.layers, layer)
	}
	if cfg.Task == NodeClassification {
		m.outNode = nn.NewLinear(rng, "ggcn.out", h, cfg.Classes, true)
	}
	m.head = newHead(rng, cfg, h)
	return m
}

// Name implements Model.
func (m *GatedGCN) Name() string { return "GatedGCN" }

// Backend implements Model.
func (m *GatedGCN) Backend() fw.Backend { return m.be }

// Params implements Model.
func (m *GatedGCN) Params() []*ag.Parameter {
	ps := m.embedH.Params()
	if m.embedE != nil {
		ps = append(ps, m.embedE.Params()...)
	}
	for _, l := range m.layers {
		ps = append(ps, l.a.Params()...)
		ps = append(ps, l.b.Params()...)
		ps = append(ps, l.d.Params()...)
		ps = append(ps, l.e.Params()...)
		ps = append(ps, l.bnH.Params()...)
		if l.c != nil {
			ps = append(ps, l.c.Params()...)
			ps = append(ps, l.bnE.Params()...)
		}
	}
	if m.outNode != nil {
		ps = append(ps, m.outNode.Params()...)
	}
	return append(ps, m.head.params()...)
}

// edgeInput returns the raw edge-feature tensor the DGL path embeds: the
// dataset's edge attributes reduced to one channel, or constant ones.
func edgeInput(b *fw.Batch) *tensor.Tensor {
	e := b.NumEdges()
	t := tensor.Ones(e, 1)
	if b.EdgeAttr != nil {
		fe := b.EdgeAttr.Cols()
		for k := 0; k < e; k++ {
			var s float64
			for j := 0; j < fe; j++ {
				s += b.EdgeAttr.At(k, j)
			}
			t.Data[k] = s / float64(fe)
		}
	}
	return t
}

// Forward implements Model.
func (m *GatedGCN) Forward(g *ag.Graph, b *fw.Batch, training bool, lt *profile.LayerTimes) *ag.Node {
	var h, e *ag.Node
	timeLayerOn(g, m.be, lt, "embed", func() {
		h = m.embedH.Apply(g, g.Input(b.X))
		if m.edgeState {
			e = m.embedE.Apply(g, g.Input(edgeInput(b)))
		}
	})
	for l, layer := range m.layers {
		layer := layer
		timeLayerOn(g, m.be, lt, fmt.Sprintf("conv%d", l+1), func() {
			h = m.drop.Apply(g, h, training)
			ah := layer.a.Apply(g, h)
			bh := layer.b.Apply(g, h)
			dh := layer.d.Apply(g, h)
			eh := layer.e.Apply(g, h)
			gate := g.Add(m.be.GatherSrc(g, b, dh), m.be.GatherDst(g, b, eh))
			if m.edgeState {
				// The fully connected edge update over all edges (DGL path).
				gate = g.Add(gate, layer.c.Apply(g, e))
			}
			sigma := g.Sigmoid(gate)
			msg := g.Mul(sigma, m.be.GatherSrc(g, b, bh))
			num := m.be.ScatterEdgesSum(g, b, msg)
			den := g.AddScalar(m.be.ScatterEdgesSum(g, b, sigma), 1e-6)
			hNew := g.Add(ah, g.Div(num, den))
			hNew = layer.bnH.Apply(g, hNew, training)
			hNew = g.ReLU(hNew)
			h = g.Add(h, hNew) // residual
			if m.edgeState {
				eNew := g.ReLU(layer.bnE.Apply(g, gate, training))
				e = m.be.StoreEdgeFrame(g, b, g.Add(e, eNew))
			}
		})
	}
	if m.cfg.Task == NodeClassification {
		var out *ag.Node
		timeLayerOn(g, m.be, lt, "classifier", func() { out = m.outNode.Apply(g, h) })
		return out
	}
	return m.head.apply(g, m.be, b, h, lt)
}
