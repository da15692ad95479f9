// Package graph defines the graph representation shared by datasets, the two
// framework backends and the models: a directed edge list (COO) with dense
// node features, plus CSR conversion, degree utilities and the random-graph
// generators the synthetic datasets are built from.
package graph

import (
	"fmt"

	"repro/internal/tensor"
)

// Graph is one graph sample. Edges are directed arcs (Src[i] -> Dst[i]);
// undirected datasets store both arcs. Node-classification graphs carry
// per-node labels Y; graph-classification graphs carry a single Label.
type Graph struct {
	NumNodes int
	Src, Dst []int

	// X holds node features, [NumNodes, F].
	X *tensor.Tensor
	// EdgeAttr holds optional edge features, [NumEdges, Fe] (nil if absent).
	EdgeAttr *tensor.Tensor
	// Pos holds optional node coordinates, [NumNodes, 2] (MNIST superpixels).
	Pos *tensor.Tensor

	// Y holds per-node class labels for node-classification graphs.
	Y []int
	// Label is the graph-level class for graph-classification graphs.
	Label int
}

// NumEdges returns the number of directed arcs.
func (g *Graph) NumEdges() int { return len(g.Src) }

// NumFeatures returns the node feature width.
func (g *Graph) NumFeatures() int {
	if g.X == nil {
		return 0
	}
	return g.X.Cols()
}

// Validate checks structural invariants and returns a descriptive error for
// the first violation. Datasets call this after generation; backends may
// assume validated input.
func (g *Graph) Validate() error {
	if g.NumNodes < 0 {
		return fmt.Errorf("graph: negative node count %d", g.NumNodes)
	}
	if len(g.Src) != len(g.Dst) {
		return fmt.Errorf("graph: src/dst length mismatch %d vs %d", len(g.Src), len(g.Dst))
	}
	for i := range g.Src {
		if g.Src[i] < 0 || g.Src[i] >= g.NumNodes || g.Dst[i] < 0 || g.Dst[i] >= g.NumNodes {
			return fmt.Errorf("graph: edge %d (%d->%d) out of range [0,%d)", i, g.Src[i], g.Dst[i], g.NumNodes)
		}
	}
	if g.X != nil && g.X.Rows() != g.NumNodes {
		return fmt.Errorf("graph: feature rows %d != nodes %d", g.X.Rows(), g.NumNodes)
	}
	if g.EdgeAttr != nil && g.EdgeAttr.Rows() != g.NumEdges() {
		return fmt.Errorf("graph: edge-attr rows %d != edges %d", g.EdgeAttr.Rows(), g.NumEdges())
	}
	if g.Pos != nil && g.Pos.Rows() != g.NumNodes {
		return fmt.Errorf("graph: pos rows %d != nodes %d", g.Pos.Rows(), g.NumNodes)
	}
	if g.Y != nil && len(g.Y) != g.NumNodes {
		return fmt.Errorf("graph: label count %d != nodes %d", len(g.Y), g.NumNodes)
	}
	return nil
}

// FromEdgeList constructs a validated graph from a raw directed edge list
// and optional per-node feature rows. Unlike building a Graph literal and
// assuming validated input, it returns a descriptive error for malformed
// input (negative node counts, mismatched src/dst lengths, out-of-range
// endpoints, ragged feature rows) instead of letting a later kernel panic.
// Self-loops and duplicate arcs are legal and preserved. This is the entry
// point untrusted input (e.g. serving requests) comes through.
func FromEdgeList(numNodes int, src, dst []int, x [][]float64) (*Graph, error) {
	g := &Graph{
		NumNodes: numNodes,
		Src:      append([]int(nil), src...),
		Dst:      append([]int(nil), dst...),
	}
	if x != nil {
		if len(x) != numNodes {
			return nil, fmt.Errorf("graph: %d feature rows != %d nodes", len(x), numNodes)
		}
		if numNodes > 0 {
			width := len(x[0])
			if width == 0 {
				return nil, fmt.Errorf("graph: node features must be non-empty")
			}
			g.X = tensor.New(numNodes, width)
			for i, row := range x {
				if len(row) != width {
					return nil, fmt.Errorf("graph: feature row %d has %d values, want %d", i, len(row), width)
				}
				copy(g.X.Row(i), row)
			}
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// WithSelfLoops returns a copy of g with one self-loop appended per node
// (edge attributes, if any, are zero for the new arcs). GCN-style models add
// self-loops so a node's own features survive aggregation.
func (g *Graph) WithSelfLoops() *Graph {
	e := g.NumEdges()
	out := &Graph{
		NumNodes: g.NumNodes,
		Src:      make([]int, e, e+g.NumNodes),
		Dst:      make([]int, e, e+g.NumNodes),
		X:        g.X, Pos: g.Pos, Y: g.Y, Label: g.Label,
	}
	copy(out.Src, g.Src)
	copy(out.Dst, g.Dst)
	for i := 0; i < g.NumNodes; i++ {
		out.Src = append(out.Src, i)
		out.Dst = append(out.Dst, i)
	}
	if g.EdgeAttr != nil {
		fe := g.EdgeAttr.Cols()
		out.EdgeAttr = tensor.ConcatRows(g.EdgeAttr, tensor.New(g.NumNodes, fe))
	}
	return out
}

// CSR is a compressed sparse row view of a graph's arcs grouped by
// destination node: for node v, the incoming arcs are Edges[RowPtr[v]:RowPtr[v+1]],
// each entry naming (source node, original edge index). DGL's fused GSpMM
// kernel aggregates through this layout.
type CSR struct {
	RowPtr []int
	Col    []int // source node per incoming arc
	EID    []int // original edge index per incoming arc
}

// BuildCSR groups arcs by destination in O(E) with a stable counting sort:
// row v lists the arcs into v in increasing arc index, the order in which a
// scatter over the arc list visits them.
func BuildCSR(numNodes int, src, dst []int) *CSR {
	c := &CSR{RowPtr: make([]int, numNodes+1), Col: make([]int, len(src)), EID: make([]int, len(src))}
	c.Fill(src, dst)
	return c
}

// Fill re-sorts the arcs src[e] → dst[e] into c's slices in place, as
// BuildCSR does, without allocating: RowPtr keeps its node count and Col and
// EID must have one slot per arc.
func (c *CSR) Fill(src, dst []int) {
	rowPtr := c.RowPtr
	n := len(rowPtr) - 1
	clear(rowPtr)
	for _, d := range dst {
		rowPtr[d+1]++
	}
	for i := 0; i < n; i++ {
		rowPtr[i+1] += rowPtr[i]
	}
	// rowPtr[d] is row d's next free slot while arcs are placed, and ends at
	// row d+1's start; shifting by one restores the row starts.
	for e, d := range dst {
		q := rowPtr[d]
		c.Col[q], c.EID[q] = src[e], e
		rowPtr[d]++
	}
	copy(rowPtr[1:], rowPtr[:n])
	rowPtr[0] = 0
}
