// Package costmodel reproduces ProGNNosis's central claim — that a GNN's
// computation time is predictable from graph metrics alone (node and edge
// counts, density, degree distribution) — and closes the loop by putting the
// prediction into production: a per-model linear cost predictor is fit by
// sweeping the synthetic graph generators across topologies, regressing the
// extracted metrics (with the same autograd + optimizer stack training uses)
// against the per-kernel forward times the simulated device reports, and the
// fitted predictor then drives SLA-aware admission control in the serving
// layer: a coalesced batch whose predicted latency would blow the p99
// objective is split or rejected before it ever reaches a replica.
package costmodel

import (
	"repro/internal/graph"
)

// NumFeatures is the width of the regression feature vector.
const NumFeatures = 6

// FeatureNames names the regression features in Vector order.
var FeatureNames = [NumFeatures]string{
	"nodes", "edges", "density", "deg_mean", "deg_var", "deg_max",
}

// Features are the graph metrics the cost model regresses computation time
// against — the ProGNNosis feature set: size (nodes, edges), density, and
// the shape of the in-degree distribution (mean, variance, max), which is
// what separates a degree-regular mesh from a heavy-tailed
// preferential-attachment graph of the same size.
type Features struct {
	Nodes   float64 // number of nodes
	Edges   float64 // number of directed arcs
	Density float64 // arcs / (nodes * (nodes-1)); 0 below two nodes
	DegMean float64 // mean in-degree
	DegVar  float64 // population variance of the in-degree
	DegMax  float64 // maximum in-degree
}

// Vector returns the features in FeatureNames order.
func (f Features) Vector() []float64 {
	return []float64{f.Nodes, f.Edges, f.Density, f.DegMean, f.DegVar, f.DegMax}
}

// accum builds Features incrementally over a disconnected union of graphs —
// exactly what a coalesced serving batch is. Per-graph degree moments add,
// so a batch's features cost O(V+E) total, not O(V+E) per admission probe.
type accum struct {
	nodes, edges     float64
	degSum, degSqSum float64
	degMax           float64
}

func (a *accum) add(g *graph.Graph) {
	a.nodes += float64(g.NumNodes)
	a.edges += float64(g.NumEdges())
	deg := make([]float64, g.NumNodes)
	for _, d := range g.Dst {
		deg[d]++
	}
	for _, d := range deg {
		a.degSum += d
		a.degSqSum += d * d
		if d > a.degMax {
			a.degMax = d
		}
	}
}

func (a *accum) features() Features {
	f := Features{Nodes: a.nodes, Edges: a.edges, DegMax: a.degMax}
	if a.nodes >= 2 {
		f.Density = a.edges / (a.nodes * (a.nodes - 1))
	}
	if a.nodes > 0 {
		f.DegMean = a.degSum / a.nodes
		f.DegVar = a.degSqSum/a.nodes - f.DegMean*f.DegMean
		if f.DegVar < 0 { // guard the subtraction against rounding
			f.DegVar = 0
		}
	}
	return f
}

// ExtractBatch computes the features of the disconnected union of graphs —
// the graph a coalesced serving batch actually runs as — without
// materializing the union.
func ExtractBatch(graphs []*graph.Graph) Features {
	var a accum
	for _, g := range graphs {
		a.add(g)
	}
	return a.features()
}
