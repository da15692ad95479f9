// Package pygeo implements the fw.Backend interface the way PyTorch
// Geometric does: "advanced mini-batching" that concatenates feature slabs in
// bulk and offsets edge indices vectorially (Fey & Lenssen 2019 describe it
// as having no computational or memory overhead, which the paper cites as the
// reason PyG's data-loading time is low), and two-kernel gather/scatter
// message passing built on the scatter primitive.
package pygeo

import (
	"time"

	"repro/internal/ag"
	"repro/internal/device"
	"repro/internal/fw"
	"repro/internal/graph"
	"repro/internal/tensor"
)

// Backend is the PyG-like framework. The zero value is ready to use.
type Backend struct{}

// New returns the PyG-like backend.
func New() *Backend { return &Backend{} }

// Name implements fw.Backend.
func (*Backend) Name() string { return "PyG" }

// Batch implements PyG's mini-batching: one bulk copy per dense payload and a
// single pass over edges adding per-graph node offsets. No per-node work, no
// per-graph metadata beyond the offset vector.
func (*Backend) Batch(graphs []*graph.Graph, dev *device.Device) *fw.Batch {
	if len(graphs) == 0 {
		panic("pygeo: cannot batch zero graphs")
	}
	b := &fw.Batch{NumGraphs: len(graphs)}
	b.NodeOffsets = make([]int, len(graphs)+1)
	totalEdges := 0
	for i, g := range graphs {
		b.NodeOffsets[i+1] = b.NodeOffsets[i] + g.NumNodes
		totalEdges += g.NumEdges()
	}
	b.NumNodes = b.NodeOffsets[len(graphs)]

	// Edge index: vectorized offset add, one pass.
	b.Src = make([]int, 0, totalEdges)
	b.Dst = make([]int, 0, totalEdges)
	b.GraphID = make([]int, b.NumNodes)
	b.Labels = make([]int, len(graphs))
	for i, g := range graphs {
		off := b.NodeOffsets[i]
		for e := 0; e < g.NumEdges(); e++ {
			b.Src = append(b.Src, g.Src[e]+off)
			b.Dst = append(b.Dst, g.Dst[e]+off)
		}
		for v := 0; v < g.NumNodes; v++ {
			b.GraphID[off+v] = i
		}
		b.Labels[i] = g.Label
	}

	// Features: bulk slab concatenation (PyG's torch.cat on contiguous
	// storage). One memcpy per graph, no per-node indexing.
	if len(graphs) > 0 && graphs[0].X != nil {
		xs := make([]*tensor.Tensor, len(graphs))
		for i, g := range graphs {
			xs[i] = g.X
		}
		b.X = tensor.ConcatRows(xs...)
	}
	if len(graphs) > 0 && graphs[0].EdgeAttr != nil {
		eas := make([]*tensor.Tensor, len(graphs))
		for i, g := range graphs {
			eas[i] = g.EdgeAttr
		}
		b.EdgeAttr = tensor.ConcatRows(eas...)
	}

	// Node labels concatenate only when every graph carries them (node
	// classification batches are single graphs).
	hasNodeLabels := len(graphs) > 0
	for _, g := range graphs {
		if g.Y == nil {
			hasNodeLabels = false
			break
		}
	}
	if hasNodeLabels {
		b.NodeLabels = make([]int, 0, b.NumNodes)
		for _, g := range graphs {
			b.NodeLabels = append(b.NodeLabels, g.Y...)
		}
	}

	b.InDeg = make([]float64, b.NumNodes)
	for _, d := range b.Dst {
		b.InDeg[d]++
	}
	dev.Alloc(b.Bytes())
	return b
}

// AggSum implements two-kernel message passing: gather source rows, scatter
// them onto destinations. An inference tape computes the pair per
// destination row over the batch's host-only CSR (fw.Batch.ByDst) and still
// charges the device both kernels (ag.GatherScatter).
func (be *Backend) AggSum(g *ag.Graph, b *fw.Batch, x *ag.Node) *ag.Node {
	return g.GatherScatter(x, nil, b.Src, b.Dst, b.NumNodes, b)
}

// AggMean gathers and scatter-means: the sum of AggSum, then each row
// divided by its in-degree.
func (be *Backend) AggMean(g *ag.Graph, b *fw.Batch, x *ag.Node) *ag.Node {
	return g.MeanByCount(g.GatherScatter(x, nil, b.Src, b.Dst, b.NumNodes, b), b.Dst)
}

// AggWeightedSum gathers, applies per-edge weights, and scatters.
func (be *Backend) AggWeightedSum(g *ag.Graph, b *fw.Batch, x *ag.Node, w *ag.Node) *ag.Node {
	return g.GatherScatter(x, w, b.Src, b.Dst, b.NumNodes, b)
}

// GatherSrc implements fw.Backend.
func (*Backend) GatherSrc(g *ag.Graph, b *fw.Batch, x *ag.Node) *ag.Node {
	return g.Gather(x, b.Src)
}

// GatherDst implements fw.Backend.
func (*Backend) GatherDst(g *ag.Graph, b *fw.Batch, x *ag.Node) *ag.Node {
	return g.Gather(x, b.Dst)
}

// EdgeSoftmax implements fw.Backend via the index-grouped softmax.
func (*Backend) EdgeSoftmax(g *ag.Graph, b *fw.Batch, scores *ag.Node) *ag.Node {
	return g.EdgeSoftmax(scores, b.Dst, b.NumNodes)
}

// ScatterEdgesSum implements fw.Backend with the scatter primitive.
func (*Backend) ScatterEdgesSum(g *ag.Graph, b *fw.Batch, m *ag.Node) *ag.Node {
	return g.ScatterAdd(m, b.Dst, b.NumNodes)
}

// StoreEdgeFrame implements fw.Backend: PyG keeps per-edge tensors
// transient, so this is the identity.
func (*Backend) StoreEdgeFrame(g *ag.Graph, b *fw.Batch, m *ag.Node) *ag.Node {
	return m
}

// ReadoutMean pools node rows per graph with the scatter API, as PyG's
// global_mean_pool does.
func (*Backend) ReadoutMean(g *ag.Graph, b *fw.Batch, x *ag.Node) *ag.Node {
	return g.ScatterMean(x, b.GraphID, b.NumGraphs)
}

// DispatchOverhead implements fw.Backend: PyTorch's dispatcher plus PyG's
// thin Python wrappers, ~10us per op on the paper's testbed.
func (*Backend) DispatchOverhead() time.Duration { return 10 * time.Microsecond }

// BaselineBytes implements fw.Backend: PyTorch's CUDA context plus PyG's
// kernel modules resident on the device (~1.0 GB on the paper's testbed).
func (*Backend) BaselineBytes() int64 { return 1_000_000_000 }

// ReadoutSum pools node rows per graph with scatter-add (global_add_pool).
func (*Backend) ReadoutSum(g *ag.Graph, b *fw.Batch, x *ag.Node) *ag.Node {
	return g.ScatterAdd(x, b.GraphID, b.NumGraphs)
}

// GCNNormalizeBothSides implements fw.Backend: PyG folds symmetric
// normalization into per-edge weights in a single pass.
func (*Backend) GCNNormalizeBothSides() bool { return false }

// UpdatesEdgeFeatures implements fw.Backend: PyG's GatedGCN reference keeps
// no persistent edge-feature state when edge_feat is off.
func (*Backend) UpdatesEdgeFeatures() bool { return false }
