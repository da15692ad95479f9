// Package models implements the six GNN architectures the paper evaluates —
// GCN, GIN and GraphSAGE (isotropic); GAT, MoNet and GatedGCN (anisotropic) —
// written once against the fw.Backend interface so the identical network runs
// under both the PyG-like and DGL-like frameworks, exactly as the paper's
// methodology requires ("we adopt implementations of the same model to make
// them comparable across frameworks", Sec. III-C).
//
// Task heads follow Sec. IV: node-classification networks are two conv
// layers (input → hidden → classes); graph-classification networks are four
// conv layers followed by a mean readout and an MLP classifier.
package models

import (
	"fmt"
	"math"
	"time"

	"repro/internal/ag"
	"repro/internal/fw"
	"repro/internal/nn"
	"repro/internal/profile"
	"repro/internal/tensor"
)

// Task selects the network head.
type Task int

// The paper's two task families.
const (
	NodeClassification Task = iota
	GraphClassification
)

// Config carries the hyperparameters of Tables II and III.
type Config struct {
	Task    Task
	In      int // input feature width
	Hidden  int // hidden width (per attention head for GAT)
	Out     int // conv-stack output width (graph task; Table III "out")
	Classes int
	Layers  int // number of conv layers (2 node task, 4 graph task)

	Dropout  float64
	Heads    int  // GAT attention heads (Table II/III: 8)
	Kernels  int  // MoNet Gaussian kernels (Table II/III: 2)
	LearnEps bool // GIN learnable epsilon
	Seed     uint64

	// SAGEAggregator selects GraphSAGE's neighbor aggregator: "meanpool"
	// (the paper's sage_aggregator setting, default), "mean", or "maxpool".
	SAGEAggregator string
	// Readout selects the graph-level pooling: "mean" (the paper's readout
	// setting, default) or "sum".
	Readout string
}

// Model is one GNN under one framework backend.
type Model interface {
	// Name returns the architecture name ("GCN", "GAT", ...).
	Name() string
	// Backend returns the framework the model was built for.
	Backend() fw.Backend
	// Params returns all trainable parameters.
	Params() []*ag.Parameter
	// Forward computes class logits for the batch: one row per node
	// (node task) or per graph (graph task). lt, when non-nil, records
	// layer-wise execution times (Fig 3).
	Forward(g *ag.Graph, b *fw.Batch, training bool, lt *profile.LayerTimes) *ag.Node
}

// convDims returns the per-layer (in, out) widths of the conv stack.
func (c Config) convDims() [][2]int {
	if c.Layers < 1 {
		panic(fmt.Sprintf("models: need at least one layer, got %d", c.Layers))
	}
	finalOut := c.Classes
	if c.Task == GraphClassification {
		finalOut = c.Out
		if finalOut == 0 {
			finalOut = c.Hidden
		}
	}
	dims := make([][2]int, c.Layers)
	in := c.In
	for l := 0; l < c.Layers; l++ {
		out := c.Hidden
		if l == c.Layers-1 {
			out = finalOut
		}
		dims[l] = [2]int{in, out}
		in = out
	}
	return dims
}

// head is the shared graph-classification readout: pooling over each
// graph's nodes followed by an MLP (Sec. IV-B.4), or the identity for node
// classification.
type head struct {
	task    Task
	readout string
	mlp     *nn.MLP
}

func newHead(rng *tensor.RNG, c Config, convOut int) head {
	h := head{task: c.Task, readout: c.Readout}
	switch h.readout {
	case "", "mean", "sum":
	default:
		panic(fmt.Sprintf("models: unknown readout %q (want mean or sum)", h.readout))
	}
	if c.Task == GraphClassification {
		mid := convOut / 2
		if mid < c.Classes {
			mid = c.Classes
		}
		h.mlp = nn.NewMLP(rng, "classifier", convOut, mid, c.Classes)
	}
	return h
}

func (h head) apply(g *ag.Graph, be fw.Backend, b *fw.Batch, x *ag.Node, lt *profile.LayerTimes) *ag.Node {
	if h.task == NodeClassification {
		return x
	}
	var pooled *ag.Node
	timeLayerOn(g, be, lt, "pooling", func() {
		if h.readout == "sum" {
			pooled = be.ReadoutSum(g, b, x)
		} else {
			pooled = be.ReadoutMean(g, b, x)
		}
	})
	var out *ag.Node
	timeLayerOn(g, be, lt, "classifier", func() { out = h.mlp.Apply(g, pooled) })
	return out
}

func (h head) params() []*ag.Parameter {
	if h.mlp == nil {
		return nil
	}
	return h.mlp.Params()
}

// invSqrtDegrees returns deg^-1/2 per node (0 for isolated nodes) as a plain
// tensor for constant row scaling.
func invSqrtDegrees(b *fw.Batch) *tensor.Tensor {
	t := tensor.New(b.NumNodes)
	fillInvSqrtDegrees(t, b)
	return t
}

// fillInvSqrtDegrees recomputes invSqrtDegrees into t in place, so a
// replayed tape can refresh the scales from the current batch contents.
func fillInvSqrtDegrees(t *tensor.Tensor, b *fw.Batch) {
	for i, d := range b.InDeg {
		if d > 0 {
			t.Data[i] = 1 / sqrt(d)
		} else {
			t.Data[i] = 0
		}
	}
}

// gcnEdgeWeights returns the symmetric-normalization weights
// (deg(src)*deg(dst))^-1/2 per arc, PyG's single-pass GCN normalization.
func gcnEdgeWeights(b *fw.Batch) *tensor.Tensor {
	w := tensor.New(b.NumEdges(), 1)
	fillGCNEdgeWeights(w, b)
	return w
}

// fillGCNEdgeWeights recomputes gcnEdgeWeights into w in place (see
// fillInvSqrtDegrees).
func fillGCNEdgeWeights(w *tensor.Tensor, b *fw.Batch) {
	for k := 0; k < b.NumEdges(); k++ {
		ds, dd := b.InDeg[b.Src[k]], b.InDeg[b.Dst[k]]
		if ds > 0 && dd > 0 {
			w.Data[k] = 1 / sqrt(ds*dd)
		} else {
			w.Data[k] = 0
		}
	}
}

// AllNames lists the six profiled architectures in the paper's order (the
// MLP baseline is constructible via New but not part of the paper's grid).
func AllNames() []string {
	return []string{"GCN", "GAT", "GraphSAGE", "GIN", "MoNet", "GatedGCN"}
}

// New builds the named architecture on the given backend.
func New(name string, be fw.Backend, cfg Config) Model {
	switch name {
	case "GCN":
		return NewGCN(be, cfg)
	case "GAT":
		return NewGAT(be, cfg)
	case "GraphSAGE", "SAGE":
		return NewGraphSAGE(be, cfg)
	case "GIN":
		return NewGIN(be, cfg)
	case "MoNet":
		return NewMoNet(be, cfg)
	case "GatedGCN":
		return NewGatedGCN(be, cfg)
	case "MLP":
		return NewMLPBaseline(be, cfg)
	}
	panic(fmt.Sprintf("models: unknown architecture %q", name))
}

// IsAnisotropic reports whether the named model weighs neighbors unequally
// (the paper's isotropic/anisotropic split).
//
//gnnvet:allow unreachable -- TestFig1BreakdownClaims
func IsAnisotropic(name string) bool {
	switch name {
	case "GAT", "MoNet", "GatedGCN":
		return true
	}
	return false
}

func sqrt(v float64) float64 { return math.Sqrt(v) }

// timeLayerOn charges f's modeled duration to the named layer timer: host
// share at wall time, kernel share at device cost-model time plus the
// framework's dispatch overhead per launched kernel, so layer-wise times
// (Fig 3) include the op-dispatch cost that dominates small-kernel conv
// layers. With no device or recorder it degrades to plain execution.
func timeLayerOn(g *ag.Graph, be fw.Backend, lt *profile.LayerTimes, name string, f func()) {
	dev := g.Device()
	if lt == nil || dev == nil {
		lt.Time(name, f)
		return
	}
	k0 := dev.Stats().Kernels
	lt.TimeModeled(func() (time.Duration, time.Duration) {
		s := dev.Stats()
		return s.ActiveTime, s.SimTime + time.Duration(s.Kernels-k0)*be.DispatchOverhead()
	}, name, f)
}
