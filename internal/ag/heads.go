package ag

import (
	"fmt"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// The multi-head ops below treat a [R, H*D] tensor as H contiguous
// D-wide head blocks per row, the layout real GAT implementations use so all
// heads ride one kernel instead of H separate chains.

// headArgs is a multi-head kernel's operands, rows of h head blocks d wide:
// the kernel writes dst from a, b and the scalar inv, whichever it reads.
type headArgs struct {
	dst, a, b []float64
	h, d      int
	inv       float64
}

// HeadDot contracts each head block with its head's weight vector:
// out[r,h] = sum_d x[r, h*D+d] * a[h,d] for x [R, H*D] and a [H, D].
func (g *Graph) HeadDot(x, a *Node) *Node {
	check2("HeadDot", x)
	check2("HeadDot", a)
	h, d := a.T.Dim(0), a.T.Dim(1)
	r := x.T.Rows()
	if x.T.Cols() != h*d {
		panic(fmt.Sprintf("ag: HeadDot x width %d != heads %d * dim %d", x.T.Cols(), h, d))
	}
	sz := int64(r * h * d)
	grain := parallel.RowGrain(2 * h * d)
	var out *tensor.Tensor
	res := g.op(&out, x.requiresGrad || a.requiresGrad, "headdot", 2*sz, 24*sz, func() {
		if out == nil {
			out = g.get(r, h)
		}
		parallel.For(r, grain, headArgs{dst: out.Data, a: x.T.Data, b: a.T.Data, h: h, d: d}, headDotRange)
	})
	res.backward = func(gr *Graph) {
		if x.requiresGrad {
			var gx *tensor.Tensor
			gr.run(2*sz, 24*sz, func() {
				gx = gr.tempLike(x.T)
				parallel.For(r, grain, headArgs{dst: gx.Data, a: res.grad.Data, b: a.T.Data, h: h, d: d}, headDotGradXRange)
			})
			gr.give(x, gx)
		}
		if a.requiresGrad {
			var ga *tensor.Tensor
			gr.run(2*sz, 24*sz, func() {
				ga = gr.zeroTempLike(a.T)
				// Serial accumulation: every row contributes to every head's
				// weight gradient, in increasing row order.
				for i := 0; i < r; i++ {
					grow := res.grad.Row(i)
					xrow := x.T.Row(i)
					for hh := 0; hh < h; hh++ {
						garow := ga.Row(hh)
						for dd := 0; dd < d; dd++ {
							garow[dd] += float64(grow[hh] * xrow[hh*d+dd])
						}
					}
				}
			})
			gr.give(a, ga)
		}
	}
	return res
}

func headDotRange(k headArgs, lo, hi int) {
	out, x, a, h, d := k.dst, k.a, k.b, k.h, k.d
	w := h * d
	for i := lo; i < hi; i++ {
		xrow := x[i*w : (i+1)*w]
		orow := out[i*h : (i+1)*h]
		for hh := 0; hh < h; hh++ {
			arow := a[hh*d : (hh+1)*d]
			var s float64
			for dd := 0; dd < d; dd++ {
				s += float64(xrow[hh*d+dd] * arow[dd])
			}
			orow[hh] = s
		}
	}
}

func headDotGradXRange(k headArgs, lo, hi int) {
	gx, grad, a, h, d := k.dst, k.a, k.b, k.h, k.d
	w := h * d
	for i := lo; i < hi; i++ {
		grow := grad[i*h : (i+1)*h]
		xrow := gx[i*w : (i+1)*w]
		for hh := 0; hh < h; hh++ {
			arow := a[hh*d : (hh+1)*d]
			for dd := 0; dd < d; dd++ {
				xrow[hh*d+dd] = grow[hh] * arow[dd]
			}
		}
	}
}

// MulHeads scales each head block by its per-row head weight:
// out[r, h*D+d] = x[r, h*D+d] * w[r, h] for x [R, H*D] and w [R, H].
// This is the attention-weighting step applied to all heads at once.
func (g *Graph) MulHeads(x, w *Node) *Node {
	check2("MulHeads", x)
	check2("MulHeads", w)
	r, h := w.T.Dim(0), w.T.Dim(1)
	if x.T.Rows() != r || x.T.Cols()%h != 0 {
		panic(fmt.Sprintf("ag: MulHeads shapes %v and %v incompatible", x.T.Shape(), w.T.Shape()))
	}
	d := x.T.Cols() / h
	sz := int64(x.T.Size())
	grain := parallel.RowGrain(h * d)
	var out *tensor.Tensor
	res := g.op(&out, x.requiresGrad || w.requiresGrad, "mulheads", sz, 32*sz, func() {
		if out == nil {
			out = g.get(r, h*d)
		}
		parallel.For(r, grain, headArgs{dst: out.Data, a: x.T.Data, b: w.T.Data, h: h, d: d}, mulHeadsRange)
	})
	res.backward = func(gr *Graph) {
		if x.requiresGrad {
			var gx *tensor.Tensor
			gr.run(sz, 32*sz, func() {
				gx = gr.tempLike(x.T)
				parallel.For(r, grain, headArgs{dst: gx.Data, a: res.grad.Data, b: w.T.Data, h: h, d: d}, mulHeadsGradXRange)
			})
			gr.give(x, gx)
		}
		if w.requiresGrad {
			var gw *tensor.Tensor
			gr.run(sz, 32*sz, func() {
				gw = gr.tempLike(w.T)
				parallel.For(r, grain, headArgs{dst: gw.Data, a: res.grad.Data, b: x.T.Data, h: h, d: d}, mulHeadsGradWRange)
			})
			gr.give(w, gw)
		}
	}
	return res
}

func mulHeadsRange(k headArgs, lo, hi int) {
	out, x, w, h, d := k.dst, k.a, k.b, k.h, k.d
	wd := h * d
	for i := lo; i < hi; i++ {
		xrow := x[i*wd : (i+1)*wd]
		wrow := w[i*h : (i+1)*h]
		orow := out[i*wd : (i+1)*wd]
		for hh := 0; hh < h; hh++ {
			wv := wrow[hh]
			for dd := 0; dd < d; dd++ {
				orow[hh*d+dd] = xrow[hh*d+dd] * wv
			}
		}
	}
}

func mulHeadsGradXRange(k headArgs, lo, hi int) {
	gx, grad, w, h, d := k.dst, k.a, k.b, k.h, k.d
	wd := h * d
	for i := lo; i < hi; i++ {
		grow := grad[i*wd : (i+1)*wd]
		wrow := w[i*h : (i+1)*h]
		xrow := gx[i*wd : (i+1)*wd]
		for hh := 0; hh < h; hh++ {
			wv := wrow[hh]
			for dd := 0; dd < d; dd++ {
				xrow[hh*d+dd] = grow[hh*d+dd] * wv
			}
		}
	}
}

func mulHeadsGradWRange(k headArgs, lo, hi int) {
	gw, grad, x, h, d := k.dst, k.a, k.b, k.h, k.d
	wd := h * d
	for i := lo; i < hi; i++ {
		grow := grad[i*wd : (i+1)*wd]
		xrow := x[i*wd : (i+1)*wd]
		wrow := gw[i*h : (i+1)*h]
		for hh := 0; hh < h; hh++ {
			var s float64
			for dd := 0; dd < d; dd++ {
				s += float64(grow[hh*d+dd] * xrow[hh*d+dd])
			}
			wrow[hh] = s
		}
	}
}

// MeanHeads averages the H head blocks of x ([R, H*D]) into [R, D] — the
// head-averaging final GAT layer.
func (g *Graph) MeanHeads(x *Node, heads int) *Node {
	check2("MeanHeads", x)
	if x.T.Cols()%heads != 0 {
		panic(fmt.Sprintf("ag: MeanHeads width %d not divisible by %d heads", x.T.Cols(), heads))
	}
	r := x.T.Rows()
	d := x.T.Cols() / heads
	sz := int64(x.T.Size())
	inv := 1 / float64(heads)
	grain := parallel.RowGrain(heads * d)
	var out *tensor.Tensor
	res := g.op(&out, x.requiresGrad, "meanheads", sz, 24*sz, func() {
		if out == nil {
			out = g.get(r, d)
		}
		parallel.For(r, grain, headArgs{dst: out.Data, a: x.T.Data, h: heads, d: d, inv: inv}, meanHeadsRange)
	})
	res.backward = func(gr *Graph) {
		var gx *tensor.Tensor
		gr.run(sz, 24*sz, func() {
			gx = gr.tempLike(x.T)
			parallel.For(r, grain, headArgs{dst: gx.Data, a: res.grad.Data, h: heads, d: d, inv: inv}, meanHeadsGradRange)
		})
		gr.give(x, gx)
	}
	return res
}

func meanHeadsRange(k headArgs, lo, hi int) {
	out, x, heads, d, inv := k.dst, k.a, k.h, k.d, k.inv
	w := heads * d
	// Accumulating kernel: zero the owned output rows first so a reused
	// pooled buffer replays identically to a fresh one.
	for i := lo * d; i < hi*d; i++ {
		out[i] = 0
	}
	for i := lo; i < hi; i++ {
		xrow := x[i*w : (i+1)*w]
		orow := out[i*d : (i+1)*d]
		for hh := 0; hh < heads; hh++ {
			for dd := 0; dd < d; dd++ {
				orow[dd] += float64(xrow[hh*d+dd] * inv)
			}
		}
	}
}

func meanHeadsGradRange(k headArgs, lo, hi int) {
	gx, grad, heads, d, inv := k.dst, k.a, k.h, k.d, k.inv
	w := heads * d
	for i := lo; i < hi; i++ {
		grow := grad[i*d : (i+1)*d]
		xrow := gx[i*w : (i+1)*w]
		for hh := 0; hh < heads; hh++ {
			for dd := 0; dd < d; dd++ {
				xrow[hh*d+dd] = grow[dd] * inv
			}
		}
	}
}
