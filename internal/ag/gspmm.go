package ag

import (
	"fmt"

	"repro/internal/tensor"
)

// The GSpMM (generalized sparse-matrix dense-matrix multiplication) ops fuse
// DGL's two-step "compute messages from source features, reduce onto
// destination" into a single kernel over a by-destination CSR adjacency, as
// described in the paper's Sec. IV-C. rowptr has one entry per destination
// node plus one; col[k] is the source node of incoming arc k.
//
// The fused kernels live in tensor/csr.go; this layer wires them onto the
// tape with the paper's FLOP/byte accounting. Parallel execution keeps the
// ownership disciplines documented there (destination rows forward, source
// rows or edge ids backward), so results are bit-identical to single-threaded
// execution with zero atomics.

// GSpMMSum computes out[v] = Σ_{k ∈ [rowptr[v], rowptr[v+1])} x[col[k]]
// in one fused kernel. On an inference tape, Epilogue can fold the row
// scale, bias and ReLU that follow it into that kernel.
func (g *Graph) GSpMMSum(x *Node, rowptr, col []int) *Node {
	check2("GSpMMSum", x)
	n := len(rowptr) - 1
	f := x.T.Cols()
	e := len(col)
	sz := int64(e * f)
	a := new(aggOut)
	res := g.op(&a.out, x.requiresGrad, "gspmm-sum", sz, 24*sz, func() {
		if a.out == nil {
			a.out = g.get(n, f)
		}
		tensor.AggregateRowsInto(a.out, x.T, nil, rowptr, col, nil, a.ep)
	})
	if g.inference {
		res.epi = &a.ep
	}
	res.backward = func(gr *Graph) {
		var gx *tensor.Tensor
		gr.run(sz, 24*sz, func() {
			gx = gr.tempLike(x.T)
			tensor.GSpMMSumGradInto(gx, res.grad, rowptr, col)
		})
		gr.accum(x, gx)
		gr.freeTemp(gx)
	}
	return res
}

// GSpMMWeightedSum computes out[v] = Σ_k w[eid[k]] * x[col[k]] fused, with
// gradients to both x and the per-edge weights w ([E] or [E,1]).
func (g *Graph) GSpMMWeightedSum(x, w *Node, rowptr, col, eid []int) *Node {
	check2("GSpMMWeightedSum", x)
	n := len(rowptr) - 1
	f := x.T.Cols()
	e := len(col)
	if w.T.Size() != e {
		panic(fmt.Sprintf("ag: GSpMMWeightedSum wants %d weights, got %v", e, w.T.Shape()))
	}
	sz := int64(e * f)
	wd := w.T.Data
	var out *tensor.Tensor
	res := g.op(&out, x.requiresGrad || w.requiresGrad, "gspmm-wsum", 2*sz, 32*sz, func() {
		if out == nil {
			out = g.get(n, f)
		}
		tensor.AggregateRowsInto(out, x.T, wd, rowptr, col, eid, tensor.Epilogue{})
	})
	res.backward = func(gr *Graph) {
		var gx, gw *tensor.Tensor
		gr.run(3*sz, 48*sz, func() {
			if x.requiresGrad {
				gx = gr.tempLike(x.T)
				tensor.GSpMMWeightedSumGradXInto(gx, res.grad, wd, rowptr, col, eid)
			}
			if w.requiresGrad {
				// Edge-weight gradients scatter by edge id, so ownership is
				// over the eid range: the owner of eid[k] computes that dot.
				gw = gr.tempLike(w.T)
				tensor.GSpMMWeightedSumGradWInto(gw, res.grad, x.T, rowptr, col, eid)
			}
		})
		if gx != nil {
			gr.accum(x, gx)
			gr.freeTemp(gx)
		}
		if gw != nil {
			gr.accum(w, gw)
			gr.freeTemp(gw)
		}
	}
	return res
}

// GSpMMEdgeSum reduces per-edge messages onto destinations fused:
// out[v] = Σ_k m[eid[k]] for m [E,F].
func (g *Graph) GSpMMEdgeSum(m *Node, rowptr, eid []int) *Node {
	check2("GSpMMEdgeSum", m)
	n := len(rowptr) - 1
	f := m.T.Cols()
	sz := int64(m.T.Size())
	var out *tensor.Tensor
	res := g.op(&out, m.requiresGrad, "gspmm-esum", sz, 24*sz, func() {
		if out == nil {
			out = g.get(n, f)
		}
		tensor.GSpMMEdgeSumInto(out, m.T, rowptr, eid)
	})
	res.backward = func(gr *Graph) {
		var gm *tensor.Tensor
		gr.run(sz, 24*sz, func() {
			gm = gr.tempLike(m.T)
			tensor.GSpMMEdgeSumGradInto(gm, res.grad, rowptr, eid)
		})
		gr.accum(m, gm)
		gr.freeTemp(gm)
	}
	return res
}
