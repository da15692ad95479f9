package models

import (
	"fmt"

	"repro/internal/ag"
	"repro/internal/fw"
	"repro/internal/nn"
	"repro/internal/profile"
	"repro/internal/tensor"
)

// GAT is Velickovic et al.'s graph attention network with the paper's eight
// heads (n_heads: 8). Hidden layers concatenate head outputs (width
// Hidden*Heads); the final layer averages heads for node classification
// (output width Classes) and concatenates for graph classification (Table
// III's out = Hidden*Heads = 256). Attention scores are
// LeakyReLU(a_l . Wh_src + a_r . Wh_dst) normalized with edge softmax.
//
// Under DGL the per-edge attention scores are stored into the graph's edge
// frame before the softmax (StoreEdgeFrame), the extra attention-computation
// cost the paper observes in DGL's GAT (Sec. IV-C).
type GAT struct {
	be     fw.Backend
	cfg    Config
	layers []*gatLayer
	drop   *nn.Dropout
	head   head
}

type gatLayer struct {
	w       *nn.Linear
	attL    *ag.Parameter // [H, D]: one attention vector per head
	attR    *ag.Parameter
	bias    *ag.Parameter
	heads   int
	headDim int
	concat  bool
}

// NewGAT builds a GAT per cfg on the given backend. For graph tasks cfg.Out
// must be divisible by cfg.Heads.
func NewGAT(be fw.Backend, cfg Config) *GAT {
	if cfg.Heads < 1 {
		panic("models: GAT needs at least one head")
	}
	rng := tensor.NewRNG(cfg.Seed)
	m := &GAT{be: be, cfg: cfg, drop: nn.NewDropout(cfg.Dropout, cfg.Seed^0x9a)}
	in := cfg.In
	for l := 0; l < cfg.Layers; l++ {
		last := l == cfg.Layers-1
		headDim := cfg.Hidden
		concat := true
		if last {
			if cfg.Task == NodeClassification {
				headDim = cfg.Classes
				concat = false
			} else {
				out := cfg.Out
				if out == 0 {
					out = cfg.Hidden * cfg.Heads
				}
				if out%cfg.Heads != 0 {
					panic(fmt.Sprintf("models: GAT out %d not divisible by %d heads", out, cfg.Heads))
				}
				headDim = out / cfg.Heads
			}
		}
		layer := &gatLayer{
			w:       nn.NewLinear(rng, fmt.Sprintf("gat%d", l), in, cfg.Heads*headDim, false),
			heads:   cfg.Heads,
			headDim: headDim,
			concat:  concat,
		}
		layer.attL = ag.NewParameter(fmt.Sprintf("gat%d.al", l), nn.GlorotUniform(rng, cfg.Heads, headDim))
		layer.attR = ag.NewParameter(fmt.Sprintf("gat%d.ar", l), nn.GlorotUniform(rng, cfg.Heads, headDim))
		outW := headDim
		if concat {
			outW = cfg.Heads * headDim
		}
		layer.bias = ag.NewParameter(fmt.Sprintf("gat%d.b", l), tensor.New(outW))
		m.layers = append(m.layers, layer)
		in = outW
	}
	m.head = newHead(rng, cfg, in)
	return m
}

// Name implements Model.
func (m *GAT) Name() string { return "GAT" }

// Backend implements Model.
func (m *GAT) Backend() fw.Backend { return m.be }

// Params implements Model.
func (m *GAT) Params() []*ag.Parameter {
	var ps []*ag.Parameter
	for _, l := range m.layers {
		ps = append(ps, l.w.Params()...)
		ps = append(ps, l.attL, l.attR, l.bias)
	}
	return append(ps, m.head.params()...)
}

// Forward implements Model.
func (m *GAT) Forward(g *ag.Graph, b *fw.Batch, training bool, lt *profile.LayerTimes) *ag.Node {
	x := g.Input(b.X)
	for l, layer := range m.layers {
		layer := layer
		timeLayerOn(g, m.be, lt, fmt.Sprintf("conv%d", l+1), func() {
			x = m.drop.Apply(g, x, training)
			// All heads ride one tensor: z is [N, H*D] with contiguous head
			// blocks, attention scores are [*, H] — the layout both real
			// frameworks use.
			z := layer.w.Apply(g, x)
			sSrc := g.HeadDot(z, g.Param(layer.attL)) // [N, H]
			sDst := g.HeadDot(z, g.Param(layer.attR))
			scores := g.LeakyReLU(g.Add(m.be.GatherSrc(g, b, sSrc), m.be.GatherDst(g, b, sDst)), 0.2)
			scores = m.be.StoreEdgeFrame(g, b, scores)
			alpha := m.be.EdgeSoftmax(g, b, scores) // [E, H]
			msg := g.MulHeads(m.be.GatherSrc(g, b, z), alpha)
			h := m.be.ScatterEdgesSum(g, b, msg) // [N, H*D]
			if !layer.concat {
				h = g.MeanHeads(h, layer.heads)
			}
			h = g.AddBias(h, g.Param(layer.bias))
			if l < len(m.layers)-1 {
				h = g.ELU(h, 1.0)
			}
			x = h
		})
	}
	return m.head.apply(g, m.be, b, x, lt)
}
