package models

import (
	"fmt"

	"repro/internal/ag"
	"repro/internal/fw"
	"repro/internal/nn"
	"repro/internal/profile"
	"repro/internal/tensor"
)

// GraphSAGE is Hamilton et al.'s inductive model. The default aggregator is
// mean-pool, the paper's setting (sage_aggregator: meanpool, Tables II-III):
// neighbors pass through a pooling MLP (Linear+ReLU), are mean-aggregated,
// concatenated with the node's own features, linearly transformed, and the
// result is projected onto the unit ball (Eq. 2 and the original paper's
// normalization step). Config.SAGEAggregator selects the original paper's
// other aggregators: "mean" (plain neighbor mean, no pooling MLP) and
// "maxpool" (elementwise max over pooled neighbors).
type GraphSAGE struct {
	be         fw.Backend
	cfg        Config
	aggregator string
	pools      []*nn.Linear // W_pool per layer (nil entries for "mean")
	lins       []*nn.Linear // W over concat(self, pooled)
	drop       *nn.Dropout
	head       head
}

// NewGraphSAGE builds a GraphSAGE per cfg on the given backend.
func NewGraphSAGE(be fw.Backend, cfg Config) *GraphSAGE {
	rng := tensor.NewRNG(cfg.Seed)
	agg := cfg.SAGEAggregator
	switch agg {
	case "":
		agg = "meanpool"
	case "meanpool", "mean", "maxpool":
	default:
		panic(fmt.Sprintf("models: unknown SAGE aggregator %q", agg))
	}
	m := &GraphSAGE{be: be, cfg: cfg, aggregator: agg, drop: nn.NewDropout(cfg.Dropout, cfg.Seed^0x5a)}
	for l, d := range cfg.convDims() {
		if agg == "mean" {
			m.pools = append(m.pools, nil)
		} else {
			m.pools = append(m.pools, nn.NewLinear(rng, fmt.Sprintf("sage%d.pool", l), d[0], d[0], true))
		}
		m.lins = append(m.lins, nn.NewLinear(rng, fmt.Sprintf("sage%d", l), 2*d[0], d[1], true))
	}
	m.head = newHead(rng, cfg, cfg.convDims()[cfg.Layers-1][1])
	return m
}

// Name implements Model.
func (m *GraphSAGE) Name() string { return "GraphSAGE" }

// Backend implements Model.
func (m *GraphSAGE) Backend() fw.Backend { return m.be }

// Params implements Model.
func (m *GraphSAGE) Params() []*ag.Parameter {
	var ps []*ag.Parameter
	for l := range m.lins {
		if m.pools[l] != nil {
			ps = append(ps, m.pools[l].Params()...)
		}
		ps = append(ps, m.lins[l].Params()...)
	}
	return append(ps, m.head.params()...)
}

// Forward implements Model.
func (m *GraphSAGE) Forward(g *ag.Graph, b *fw.Batch, training bool, lt *profile.LayerTimes) *ag.Node {
	x := g.Input(b.X)
	for l := range m.lins {
		l := l
		timeLayerOn(g, m.be, lt, fmt.Sprintf("conv%d", l+1), func() {
			x = m.drop.Apply(g, x, training)
			var agg *ag.Node
			switch m.aggregator {
			case "mean":
				agg = m.be.AggMean(g, b, x)
			case "maxpool":
				pooled := g.ReLU(m.pools[l].Apply(g, x))
				agg = g.ScatterMax(m.be.GatherSrc(g, b, pooled), b.Dst, b.NumNodes)
			default: // meanpool
				pooled := g.ReLU(m.pools[l].Apply(g, x))
				agg = m.be.AggMean(g, b, pooled)
			}
			h := m.lins[l].Apply(g, g.ConcatCols(x, agg))
			if l < len(m.lins)-1 {
				h = g.ReLU(h)
			}
			x = g.L2NormalizeRows(h, 1e-12)
		})
	}
	return m.head.apply(g, m.be, b, x, lt)
}
