// Package fw defines the framework abstraction the six GNN models are
// written against, mirroring the role PyTorch Geometric and Deep Graph
// Library play in the paper. The two implementations — fw/pygeo and fw/dglb —
// compute identical math through deliberately different code paths that
// reproduce each framework's real mechanisms:
//
//   - pygeo batches graphs with PyG's "advanced mini-batching" (bulk feature
//     concatenation and vectorized edge-index offsetting, no per-node work)
//     and aggregates with two-kernel gather+scatter message passing;
//   - dglb batches through heterograph-aware bookkeeping (per-type metadata
//     even for homogeneous graphs, per-graph copies), aggregates with fused
//     GSpMM kernels over CSR, pools with segment reduction, and requires the
//     GatedGCN edge-feature update path.
//
// These differences are exactly the ones the paper identifies as the sources
// of DGL's data-loading and per-layer overheads (Sec. IV-C).
package fw

import (
	"fmt"
	"math"
	"strconv"
	"time"

	"repro/internal/ag"
	"repro/internal/device"
	"repro/internal/graph"
	"repro/internal/tensor"
)

// Batch is a set of graphs merged into one disconnected graph, the unit of
// one training iteration. Node rows are ordered graph-by-graph, so
// NodeOffsets[i] is the first node of graph i (NumGraphs+1 entries).
type Batch struct {
	NumNodes  int
	NumGraphs int
	Src, Dst  []int
	X         *tensor.Tensor // [NumNodes, F]
	EdgeAttr  *tensor.Tensor // [NumEdges, Fe] or nil

	NodeOffsets []int // per-graph node offsets, len NumGraphs+1
	GraphID     []int // node -> graph index
	Labels      []int // graph-level labels, len NumGraphs
	NodeLabels  []int // node-level labels (node-classification batches)

	InDeg []float64 // in-degree per node (datasets include self-loops)

	// CSR is the by-destination adjacency the DGL backend's fused kernels
	// run over; nil for the PyG backend.
	CSR *graph.CSR

	pseudo *tensor.Tensor
	byDst  *graph.CSR // host-only CSR of a batch without one; see ByDst
}

// NumEdges returns the number of arcs in the batch.
func (b *Batch) NumEdges() int { return len(b.Src) }

// Pseudo returns MoNet's pseudo-coordinates u_e = (deg(src)^-1/2,
// deg(dst)^-1/2) per arc, computed on first use and cached. They are graph
// constants: no gradient flows through them.
func (b *Batch) Pseudo(dev *device.Device) *tensor.Tensor {
	if b.pseudo != nil {
		return b.pseudo
	}
	e := b.NumEdges()
	p := tensor.New(e, 2)
	dev.Kernel(int64(4*e), int64(8*4*e), func() {
		for k := 0; k < e; k++ {
			p.Set(k, 0, invSqrt(b.InDeg[b.Src[k]]))
			p.Set(k, 1, invSqrt(b.InDeg[b.Dst[k]]))
		}
	})
	dev.Alloc(int64(p.Size()) * 8)
	b.pseudo = p
	return p
}

// ByDst returns the batch's arcs grouped by destination, the CSR the host's
// destination-row aggregation runs over (tensor.ArcsByDst). A DGL batch
// returns its CSR. Any other batch builds one with graph.BuildCSR on first
// use and keeps it, as Pseudo does. That CSR lives on the host only: Bytes
// does not count it, the device is not charged for it, and collation does
// not build it. graph.BuildCSR's stable sort lists each row's arcs in
// increasing arc index, the order PyG's scatter adds them in.
func (b *Batch) ByDst() (rowptr, col, eid []int) {
	c := b.CSR
	if c == nil {
		if b.byDst == nil {
			b.byDst = graph.BuildCSR(b.NumNodes, b.Src, b.Dst)
		}
		c = b.byDst
	}
	return c.RowPtr, c.Col, c.EID
}

func invSqrt(d float64) float64 {
	if d <= 0 {
		return 0
	}
	return 1 / math.Sqrt(d)
}

// FillPseudo recomputes the cached pseudo-coordinate tensor in place from
// the current Src/Dst/InDeg contents. It is a no-op when Pseudo was never
// materialized; replayed tapes register it as a refresh hook so the recorded
// pseudo buffer follows batch data copied in via CopyDataFrom.
func (b *Batch) FillPseudo() {
	if b.pseudo == nil {
		return
	}
	for k := 0; k < b.NumEdges(); k++ {
		b.pseudo.Set(k, 0, invSqrt(b.InDeg[b.Src[k]]))
		b.pseudo.Set(k, 1, invSqrt(b.InDeg[b.Dst[k]]))
	}
}

// ShapeSig returns a key identifying the batch's shape: two batches with the
// same signature have identical node/edge/graph counts, feature widths and
// per-graph offsets, so a forward tape recorded on one can be replayed on
// the other after CopyDataFrom. Offsets are part of the signature because
// segment reductions capture them by reference at record time.
func (b *Batch) ShapeSig() string {
	return string(b.AppendShapeSig(nil))
}

// AppendShapeSig appends the shape signature to dst and returns the extended
// slice. The serving hot path keys its tape cache with this form so a warm
// lookup (map index on string(buf)) allocates nothing.
func (b *Batch) AppendShapeSig(dst []byte) []byte {
	xw := 0
	if b.X != nil {
		xw = b.X.Cols()
	}
	ew := -1
	if b.EdgeAttr != nil {
		ew = b.EdgeAttr.Cols()
	}
	dst = append(dst, 'n')
	dst = strconv.AppendInt(dst, int64(b.NumNodes), 10)
	dst = append(dst, " g"...)
	dst = strconv.AppendInt(dst, int64(b.NumGraphs), 10)
	dst = append(dst, " e"...)
	dst = strconv.AppendInt(dst, int64(b.NumEdges()), 10)
	dst = append(dst, " x"...)
	dst = strconv.AppendInt(dst, int64(xw), 10)
	dst = append(dst, " ea"...)
	dst = strconv.AppendInt(dst, int64(ew), 10)
	dst = append(dst, " off["...)
	for i, o := range b.NodeOffsets {
		if i > 0 {
			dst = append(dst, ' ')
		}
		dst = strconv.AppendInt(dst, int64(o), 10)
	}
	return append(dst, ']')
}

// SameShape reports whether src shares b's shape signature, without
// building either string.
func (b *Batch) SameShape(src *Batch) bool {
	if b.NumNodes != src.NumNodes || b.NumGraphs != src.NumGraphs || b.NumEdges() != src.NumEdges() {
		return false
	}
	if (b.X == nil) != (src.X == nil) || (b.X != nil && b.X.Cols() != src.X.Cols()) {
		return false
	}
	if (b.EdgeAttr == nil) != (src.EdgeAttr == nil) || (b.EdgeAttr != nil && b.EdgeAttr.Cols() != src.EdgeAttr.Cols()) {
		return false
	}
	if len(b.NodeOffsets) != len(src.NodeOffsets) {
		return false
	}
	for i, o := range b.NodeOffsets {
		if o != src.NodeOffsets[i] {
			return false
		}
	}
	return true
}

// Clone deep-copies the batch: no storage is shared with b. Serving replicas
// clone the first batch of each shape into a long-lived shadow whose buffers
// a recorded tape captures; later same-shape batches are copied in with
// CopyDataFrom. The clone carries no device-memory accounting of its own.
func (b *Batch) Clone() *Batch {
	c := &Batch{
		NumNodes:    b.NumNodes,
		NumGraphs:   b.NumGraphs,
		Src:         append([]int(nil), b.Src...),
		Dst:         append([]int(nil), b.Dst...),
		NodeOffsets: append([]int(nil), b.NodeOffsets...),
		GraphID:     append([]int(nil), b.GraphID...),
		Labels:      append([]int(nil), b.Labels...),
		NodeLabels:  append([]int(nil), b.NodeLabels...),
		InDeg:       append([]float64(nil), b.InDeg...),
	}
	if b.X != nil {
		c.X = b.X.Clone()
	}
	if b.EdgeAttr != nil {
		c.EdgeAttr = b.EdgeAttr.Clone()
	}
	if b.CSR != nil {
		c.CSR = &graph.CSR{
			RowPtr: append([]int(nil), b.CSR.RowPtr...),
			Col:    append([]int(nil), b.CSR.Col...),
			EID:    append([]int(nil), b.CSR.EID...),
		}
	}
	return c
}

// CopyDataFrom copies src's payload into b's existing buffers without
// replacing any slice or tensor, so pointers captured by a recorded tape
// stay valid; a CSR that ByDst built is re-sorted in place from the new arcs.
// Panics unless src has b's shape signature.
func (b *Batch) CopyDataFrom(src *Batch) {
	if !b.SameShape(src) {
		panic(fmt.Sprintf("fw: CopyDataFrom shape mismatch: %q vs %q", b.ShapeSig(), src.ShapeSig()))
	}
	copy(b.Src, src.Src)
	copy(b.Dst, src.Dst)
	copy(b.NodeOffsets, src.NodeOffsets)
	copy(b.GraphID, src.GraphID)
	copy(b.Labels, src.Labels)
	copy(b.NodeLabels, src.NodeLabels)
	copy(b.InDeg, src.InDeg)
	if b.X != nil {
		copy(b.X.Data, src.X.Data)
	}
	if b.EdgeAttr != nil {
		copy(b.EdgeAttr.Data, src.EdgeAttr.Data)
	}
	if b.CSR != nil && src.CSR != nil {
		copy(b.CSR.RowPtr, src.CSR.RowPtr)
		copy(b.CSR.Col, src.CSR.Col)
		copy(b.CSR.EID, src.CSR.EID)
	}
	if b.byDst != nil {
		b.byDst.Fill(b.Src, b.Dst)
	}
}

// Bytes returns the device-memory footprint of the batch's dense payload
// (features, edge attributes, edge index), the quantity the batching step
// allocates on the accelerator.
func (b *Batch) Bytes() int64 {
	var n int64
	if b.X != nil {
		n += int64(b.X.Size()) * 8
	}
	if b.EdgeAttr != nil {
		n += int64(b.EdgeAttr.Size()) * 8
	}
	n += int64(len(b.Src)+len(b.Dst)) * 8
	if b.CSR != nil {
		// DGL materializes the sparse formats on the device alongside COO.
		n += int64(len(b.CSR.RowPtr)+len(b.CSR.Col)+len(b.CSR.EID)) * 8
	}
	return n
}

// Release frees the batch's device-memory accounting. Trainers call it when
// the iteration's graph has been finished.
func (b *Batch) Release(dev *device.Device) {
	dev.Free(b.Bytes())
	if b.pseudo != nil {
		dev.Free(int64(b.pseudo.Size()) * 8)
		b.pseudo = nil
	}
}

// Invariants checks the structural invariants every collated batch must
// satisfy regardless of which backend produced it: monotonic node offsets
// covering [0, NumNodes], GraphID consistent with the offsets, arcs in
// range, per-graph labels and in-degrees sized and summing correctly, and —
// when the backend materialized CSR — a CSR that indexes every arc exactly
// once. It returns a descriptive error for the first violation. The fuzz
// harness drives both backends' collation paths through this check.
//
//gnnvet:allow unreachable -- FuzzBatchCollate
func (b *Batch) Invariants() error {
	if b.NumGraphs <= 0 {
		return fmt.Errorf("fw: batch has %d graphs", b.NumGraphs)
	}
	if len(b.NodeOffsets) != b.NumGraphs+1 {
		return fmt.Errorf("fw: %d node offsets for %d graphs", len(b.NodeOffsets), b.NumGraphs)
	}
	if b.NodeOffsets[0] != 0 {
		return fmt.Errorf("fw: node offsets start at %d", b.NodeOffsets[0])
	}
	for i := 1; i < len(b.NodeOffsets); i++ {
		if b.NodeOffsets[i] < b.NodeOffsets[i-1] {
			return fmt.Errorf("fw: node offsets not monotonic at %d: %d < %d", i, b.NodeOffsets[i], b.NodeOffsets[i-1])
		}
	}
	if last := b.NodeOffsets[b.NumGraphs]; last != b.NumNodes {
		return fmt.Errorf("fw: node offsets end at %d, batch has %d nodes", last, b.NumNodes)
	}
	if len(b.Src) != len(b.Dst) {
		return fmt.Errorf("fw: src/dst length mismatch %d vs %d", len(b.Src), len(b.Dst))
	}
	for k := range b.Src {
		if b.Src[k] < 0 || b.Src[k] >= b.NumNodes || b.Dst[k] < 0 || b.Dst[k] >= b.NumNodes {
			return fmt.Errorf("fw: arc %d (%d->%d) out of range [0,%d)", k, b.Src[k], b.Dst[k], b.NumNodes)
		}
	}
	if len(b.GraphID) != b.NumNodes {
		return fmt.Errorf("fw: %d graph ids for %d nodes", len(b.GraphID), b.NumNodes)
	}
	for v, gid := range b.GraphID {
		if gid < 0 || gid >= b.NumGraphs {
			return fmt.Errorf("fw: node %d assigned to graph %d of %d", v, gid, b.NumGraphs)
		}
		if v < b.NodeOffsets[gid] || v >= b.NodeOffsets[gid+1] {
			return fmt.Errorf("fw: node %d graph id %d outside its offset range [%d,%d)", v, gid, b.NodeOffsets[gid], b.NodeOffsets[gid+1])
		}
	}
	if len(b.Labels) != b.NumGraphs {
		return fmt.Errorf("fw: %d labels for %d graphs", len(b.Labels), b.NumGraphs)
	}
	if b.NodeLabels != nil && len(b.NodeLabels) != b.NumNodes {
		return fmt.Errorf("fw: %d node labels for %d nodes", len(b.NodeLabels), b.NumNodes)
	}
	if len(b.InDeg) != b.NumNodes {
		return fmt.Errorf("fw: %d in-degrees for %d nodes", len(b.InDeg), b.NumNodes)
	}
	var degSum float64
	for _, d := range b.InDeg {
		if d < 0 {
			return fmt.Errorf("fw: negative in-degree %v", d)
		}
		degSum += d
	}
	if int(degSum) != b.NumEdges() {
		return fmt.Errorf("fw: in-degrees sum to %v, batch has %d arcs", degSum, b.NumEdges())
	}
	if b.X != nil && b.X.Rows() != b.NumNodes {
		return fmt.Errorf("fw: feature rows %d != nodes %d", b.X.Rows(), b.NumNodes)
	}
	if b.EdgeAttr != nil && b.EdgeAttr.Rows() != b.NumEdges() {
		return fmt.Errorf("fw: edge-attr rows %d != arcs %d", b.EdgeAttr.Rows(), b.NumEdges())
	}
	if b.CSR != nil {
		if len(b.CSR.RowPtr) != b.NumNodes+1 {
			return fmt.Errorf("fw: CSR row-ptr length %d for %d nodes", len(b.CSR.RowPtr), b.NumNodes)
		}
		for i := 1; i < len(b.CSR.RowPtr); i++ {
			if b.CSR.RowPtr[i] < b.CSR.RowPtr[i-1] {
				return fmt.Errorf("fw: CSR row-ptr not monotonic at %d", i)
			}
		}
		if b.CSR.RowPtr[b.NumNodes] != b.NumEdges() {
			return fmt.Errorf("fw: CSR indexes %d arcs, batch has %d", b.CSR.RowPtr[b.NumNodes], b.NumEdges())
		}
		if len(b.CSR.Col) != b.NumEdges() || len(b.CSR.EID) != b.NumEdges() {
			return fmt.Errorf("fw: CSR col/eid lengths %d/%d for %d arcs", len(b.CSR.Col), len(b.CSR.EID), b.NumEdges())
		}
		seen := make([]bool, b.NumEdges())
		for i, e := range b.CSR.EID {
			if e < 0 || e >= b.NumEdges() || seen[e] {
				return fmt.Errorf("fw: CSR eid[%d]=%d invalid or duplicated", i, e)
			}
			seen[e] = true
			if b.CSR.Col[i] != b.Src[e] {
				return fmt.Errorf("fw: CSR col[%d]=%d disagrees with src[%d]=%d", i, b.CSR.Col[i], e, b.Src[e])
			}
		}
	}
	return nil
}

// Backend is the framework interface the models call. All methods build onto
// the supplied autograd graph; the batch must have been produced by the same
// backend's Batch method.
type Backend interface {
	// Name identifies the framework ("PyG" or "DGL").
	Name() string

	// Batch merges graphs into one disconnected graph and accounts its
	// device transfer. This is the "data loading / processing" phase of the
	// paper's Figs 1-2 breakdown.
	Batch(graphs []*graph.Graph, dev *device.Device) *Batch

	// AggSum computes, per node, the sum of in-neighbor features:
	// out[i] = Σ_{(j->i)} x[j].
	AggSum(g *ag.Graph, b *Batch, x *ag.Node) *ag.Node
	// AggMean is AggSum divided by in-degree (zero for isolated nodes).
	AggMean(g *ag.Graph, b *Batch, x *ag.Node) *ag.Node
	// AggWeightedSum weighs each arc's message by the per-edge scalar w
	// ([E] or [E,1]): out[i] = Σ_{(j->i)} w_e * x[j].
	AggWeightedSum(g *ag.Graph, b *Batch, x *ag.Node, w *ag.Node) *ag.Node

	// GatherSrc / GatherDst materialize per-arc views of node features.
	GatherSrc(g *ag.Graph, b *Batch, x *ag.Node) *ag.Node
	GatherDst(g *ag.Graph, b *Batch, x *ag.Node) *ag.Node
	// EdgeSoftmax normalizes per-arc scores over each destination's arcs.
	EdgeSoftmax(g *ag.Graph, b *Batch, scores *ag.Node) *ag.Node
	// ScatterEdgesSum sums per-arc values into destination nodes:
	// out[i] = Σ_{(j->i)} m_e for m [E,F].
	ScatterEdgesSum(g *ag.Graph, b *Batch, m *ag.Node) *ag.Node

	// StoreEdgeFrame persists a per-edge tensor as edge data on the batch
	// graph. DGL layers write attention scores, kernel weights and gates
	// into g.edata (a real device copy per store); PyG keeps such tensors
	// transient (identity). This is one of the "more operations" the paper
	// observes in DGL's conv layers.
	StoreEdgeFrame(g *ag.Graph, b *Batch, m *ag.Node) *ag.Node

	// ReadoutMean pools node features into one row per graph (the "mean"
	// readout of Tables II-III).
	ReadoutMean(g *ag.Graph, b *Batch, x *ag.Node) *ag.Node
	// ReadoutSum is the sum-pooling readout variant.
	ReadoutSum(g *ag.Graph, b *Batch, x *ag.Node) *ag.Node

	// DispatchOverhead is the host-side cost of launching one kernel through
	// the framework's op-dispatch machinery. PyG rides PyTorch's C++
	// dispatcher with thin wrappers; DGL schedules every message-passing op
	// through its update_all runtime (message/reduce resolution, format
	// checks, heterograph type dispatch), which costs several times more per
	// op — a large part of why DGL's conv layers are slower even when its
	// fused kernels do less device work (paper Sec. IV-C). Calibrated
	// constants; see DESIGN.md.
	DispatchOverhead() time.Duration

	// BaselineBytes is the framework's resident device-memory footprint
	// before any model state: CUDA context, kernel modules, allocator pools.
	// nvidia-smi (the paper's memory probe) sees this baseline; DGL's is
	// larger than PyG's. Values are calibrated constants (see DESIGN.md).
	BaselineBytes() int64

	// GCNNormalizeBothSides reports whether the framework's GCN layer scales
	// features by deg^-1/2 before AND after aggregation (DGL's norm='both')
	// instead of folding normalization into per-edge weights (PyG).
	GCNNormalizeBothSides() bool
	// UpdatesEdgeFeatures reports whether the framework's GatedGCN layer
	// maintains explicit edge features updated through a fully connected
	// layer every layer (DGL), the paper's explanation for GatedGCN-DGL
	// being ~2x slower and the most memory-hungry configuration.
	UpdatesEdgeFeatures() bool
}
