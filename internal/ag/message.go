package ag

import (
	"fmt"

	"repro/internal/tensor"
)

// Gather returns out[k] = x[idx[k]] over rows; the backbone of per-edge
// message construction (gather source-node features along edges).
func (g *Graph) Gather(x *Node, idx []int) *Node {
	check2("Gather", x)
	f := x.T.Cols()
	sz := int64(len(idx) * f)
	rows := len(idx)
	var out *tensor.Tensor
	res := g.op(&out, x.requiresGrad, "gather", 0, 16*sz, func() {
		if out == nil {
			out = g.get(rows, f)
		}
		tensor.GatherRowsInto(out, x.T, idx)
	})
	res.backward = func(gr *Graph) {
		var gx *tensor.Tensor
		gr.run(sz, 24*sz, func() {
			gx = gr.tempLike(x.T)
			tensor.ScatterAddRowsInto(gx, res.grad, idx)
		})
		gr.give(x, gx)
	}
	return res
}

// ScatterAdd sums rows of x into n destination rows: out[idx[k]] += x[k].
// This is the aggregation step of message passing (PyG's scatter_add).
func (g *Graph) ScatterAdd(x *Node, idx []int, n int) *Node {
	check2("ScatterAdd", x)
	sz := int64(x.T.Size())
	f := x.T.Cols()
	var out *tensor.Tensor
	res := g.op(&out, x.requiresGrad, "scatteradd", sz, 24*sz, func() {
		if out == nil {
			out = g.get(n, f)
		}
		tensor.ScatterAddRowsInto(out, x.T, idx)
	})
	res.backward = func(gr *Graph) {
		var gx *tensor.Tensor
		gr.run(0, 16*sz, func() {
			gx = gr.tempLike(x.T)
			tensor.GatherRowsInto(gx, res.grad, idx)
		})
		gr.give(x, gx)
	}
	return res
}

// GatherScatter is PyG's message passing over arcs src[k] → dst[k]:
// out[dst[k]] += w[k]·x[src[k]] into n destination rows, with w (one weight
// per arc, [E] or [E,1]) optional.
//
// A training tape records the two-kernel chain Gather → MulBroadcastCol →
// ScatterAdd (the middle op only with w), whose E×F messages backward reads.
// An inference tape charges the device exactly that stream — the same three
// kernels with the same work, and the messages' bytes held until Finish — so
// the simulated GPU still runs PyG, but the host computes each destination
// row in registers over arcs, the arcs grouped by destination
// (tensor.GatherScaleScatterInto), without materialising either message
// buffer. Only an inference tape consults arcs, once per run of the op, so a
// replay reads whatever CSR arcs holds then. Each CSR row lists its arcs in
// increasing k, so the products and the per-element summation order are the
// chain's, and both kinds give the same bits. On an inference tape, Epilogue
// can fold the bias and ReLU that follow into the same pass.
func (g *Graph) GatherScatter(x, w *Node, src, dst []int, n int, arcs tensor.ArcsByDst) *Node {
	if !g.inference {
		m := g.Gather(x, src)
		if w != nil {
			m = g.MulBroadcastCol(m, w)
		}
		return g.ScatterAdd(m, dst, n)
	}
	check2("Gather", x)
	f := x.T.Cols()
	sz := int64(len(src) * f)
	requiresGrad := x.requiresGrad
	g.deviceOnly("gather", 0, 16*sz, 8*sz, nop)
	var wv *tensor.Tensor
	if w != nil {
		if w.T.Size() != len(src) {
			panic(fmt.Sprintf("ag: MulBroadcastCol weight size %v for %d rows", w.T.Shape(), len(src)))
		}
		wv = w.T.Reshape(len(src))
		requiresGrad = requiresGrad || w.requiresGrad
		g.deviceOnly("mulbcol", sz, 24*sz, 8*sz, nop)
	}
	a := new(aggOut)
	res := g.op(&a.out, requiresGrad, "scatteradd", sz, 24*sz, func() {
		if a.out == nil {
			a.out = g.get(n, x.T.Cols()) // not f: one word less to capture keeps the closure in its size class
		}
		tensor.GatherScaleScatterInto(a.out, x.T, wv, src, dst, arcs, a.ep)
	})
	res.epi = &a.ep
	return res
}

// ScatterMean averages rows of x into n destination rows. Rows receiving no
// contributions stay zero.
func (g *Graph) ScatterMean(x *Node, idx []int, n int) *Node {
	return g.MeanByCount(g.ScatterAdd(x, idx, n), idx)
}

// MeanByCount divides row i of sum by how many entries of idx name it,
// turning a scatter-add over idx into a scatter-mean; rows no index names
// stay zero. The inverse-count scales refresh on every replay, so a
// re-executed tape follows whatever indices the batch buffers hold.
func (g *Graph) MeanByCount(sum *Node, idx []int) *Node {
	n := sum.T.Rows()
	var inv *tensor.Tensor
	fill := func() {
		if inv == nil {
			inv = g.get(n)
			g.alloc(inv)
		}
		for i := range inv.Data {
			inv.Data[i] = 0
		}
		for _, d := range idx {
			inv.Data[d]++
		}
		for i, c := range inv.Data {
			if c > 0 {
				inv.Data[i] = 1 / c
			}
		}
	}
	return g.scaleRowsConst(sum, &inv, fill)
}

// ScatterMax takes the per-destination elementwise maximum of rows of x.
// Destinations receiving no contribution get zero (matching PyG's
// scatter_max fill behaviour after masking).
func (g *Graph) ScatterMax(x *Node, idx []int, n int) *Node {
	check2("ScatterMax", x)
	f := x.T.Cols()
	sz := int64(x.T.Size())
	var out *tensor.Tensor
	var arg []int // which source row won each (dst, col) slot
	res := g.op(&out, x.requiresGrad, "scattermax", sz, 24*sz, func() {
		if out == nil {
			out = g.get(n, f)
			arg = make([]int, n*f)
		}
		tensor.ScatterMaxInto(out, arg, x.T, idx)
	})
	res.backward = func(gr *Graph) {
		var gx *tensor.Tensor
		gr.run(sz, 24*sz, func() {
			gx = gr.tempLike(x.T)
			tensor.ScatterMaxGradInto(gx, res.grad, arg)
		})
		gr.give(x, gx)
	}
	return res
}

// scaleRowsConst multiplies row i of x by the constant (*s)[i] (no gradient
// to s). refresh, when non-nil, lazily materializes *s and recomputes its
// contents; it runs inside the forward kernel so replays track the current
// batch structure.
func (g *Graph) scaleRowsConst(x *Node, s **tensor.Tensor, refresh func()) *Node {
	sz := int64(x.T.Size())
	var out *tensor.Tensor
	res := g.op(&out, x.requiresGrad, "scalerows", sz, 24*sz, func() {
		if refresh != nil {
			refresh()
		}
		if out == nil {
			out = g.getLike(x.T)
		}
		tensor.MulColVectorInto(out, x.T, *s)
	})
	res.backward = func(gr *Graph) {
		var gx *tensor.Tensor
		gr.run(sz, 24*sz, func() {
			gx = gr.tempLike(x.T)
			tensor.MulColVectorInto(gx, res.grad, *s)
		})
		gr.give(x, gx)
	}
	return res
}

// ScaleRows multiplies row i of x by the constant s[i] (s has length =
// rows of x; no gradient flows to s). Used for fixed degree normalization.
func (g *Graph) ScaleRows(x *Node, s *tensor.Tensor) *Node {
	check2("ScaleRows", x)
	if s.Size() != x.T.Rows() {
		panic(fmt.Sprintf("ag: ScaleRows wants %d scales, got %v", x.T.Rows(), s.Shape()))
	}
	sv := s.Reshape(s.Size())
	return g.scaleRowsConst(x, &sv, nil)
}

// EdgeSoftmax normalizes per-edge scores over the edges sharing a
// destination node: alpha_e = exp(s_e) / sum_{e': dst(e')=dst(e)} exp(s_e').
// scores is [E, H] (H independent channels, e.g. attention heads); dst names
// each edge's destination in [0, n). The softmax uses the per-group max
// subtraction trick. This is DGL's edge_softmax / PyG's softmax(index=...).
func (g *Graph) EdgeSoftmax(scores *Node, dst []int, n int) *Node {
	check2("EdgeSoftmax", scores)
	e, h := scores.T.Rows(), scores.T.Cols()
	if len(dst) != e {
		panic(fmt.Sprintf("ag: EdgeSoftmax got %d scores for %d edges", e, len(dst)))
	}
	sz := int64(e * h)
	// Per-group max and sum workspaces are re-initialized inside the kernel,
	// so the recorded buffers serve every replay.
	var out, maxes, sums *tensor.Tensor
	res := g.op(&out, scores.requiresGrad, "edgesoftmax", 4*sz, 32*sz, func() {
		if out == nil {
			out = g.get(e, h)
			maxes = g.get(n, h)
			sums = g.get(n, h)
		}
		tensor.EdgeSoftmaxInto(out, scores.T, dst, maxes, sums)
	})
	res.backward = func(gr *Graph) {
		// dL/ds_e = alpha_e * (dL/dalpha_e - sum_{e' in group} alpha_e' dL/dalpha_e')
		var gs, dots *tensor.Tensor
		gr.run(4*sz, 32*sz, func() {
			gs = gr.tempLike(scores.T)
			dots = gr.tempLike(maxes)
			tensor.EdgeSoftmaxGradInto(gs, out, res.grad, dst, dots)
		})
		gr.give(scores, gs)
		gr.freeTemp(dots)
	}
	return res
}

// SegmentSum reduces contiguous row segments: segment i covers rows
// [offsets[i], offsets[i+1]) and sums to output row i. offsets must start at
// 0, end at x's row count, and be nondecreasing. This mirrors DGL's segment
// reduce, which requires (and exploits) the sorted node order produced by
// its batching.
func (g *Graph) SegmentSum(x *Node, offsets []int) *Node {
	check2("SegmentSum", x)
	validateOffsets(offsets, x.T.Rows())
	segs := len(offsets) - 1
	f := x.T.Cols()
	sz := int64(x.T.Size())
	var out *tensor.Tensor
	res := g.op(&out, x.requiresGrad, "segmentsum", sz, 16*sz, func() {
		if out == nil {
			out = g.get(segs, f)
		}
		tensor.SegmentSumInto(out, x.T, offsets)
	})
	res.backward = func(gr *Graph) {
		var gx *tensor.Tensor
		gr.run(sz, 16*sz, func() {
			gx = gr.tempLike(x.T)
			tensor.SegmentSumGradInto(gx, res.grad, offsets)
		})
		gr.give(x, gx)
	}
	return res
}

// SegmentMean averages contiguous row segments (see SegmentSum). Empty
// segments produce zero rows. The inverse-count scales refresh on replay.
func (g *Graph) SegmentMean(x *Node, offsets []int) *Node {
	summed := g.SegmentSum(x, offsets)
	segs := len(offsets) - 1
	var inv *tensor.Tensor
	fill := func() {
		if inv == nil {
			inv = g.get(segs)
			g.alloc(inv)
		}
		for s := 0; s < segs; s++ {
			if c := offsets[s+1] - offsets[s]; c > 0 {
				inv.Data[s] = 1 / float64(c)
			} else {
				inv.Data[s] = 0
			}
		}
	}
	return g.scaleRowsConst(summed, &inv, fill)
}

func validateOffsets(offsets []int, rows int) {
	if len(offsets) < 2 || offsets[0] != 0 || offsets[len(offsets)-1] != rows {
		panic(fmt.Sprintf("ag: segment offsets must span [0,%d], got %v", rows, offsets))
	}
	for i := 1; i < len(offsets); i++ {
		if offsets[i] < offsets[i-1] {
			panic(fmt.Sprintf("ag: segment offsets must be nondecreasing, got %v", offsets))
		}
	}
}
