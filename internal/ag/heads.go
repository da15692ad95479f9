package ag

import (
	"fmt"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// The multi-head ops below treat a [R, H*D] tensor as H contiguous
// D-wide head blocks per row, the layout real GAT implementations use so all
// heads ride one kernel instead of H separate chains.

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
		if parallel.Inline(r, grain) {
			headDotRange(out.Data, x.T.Data, a.T.Data, h, d, 0, r)
			return
		}
		parallel.For(r, grain, func(lo, hi int) { headDotRange(out.Data, x.T.Data, a.T.Data, h, d, lo, hi) })
	})
	res.backward = func(gr *Graph) {
		if x.requiresGrad {
			var gx *tensor.Tensor
			gr.run(2*sz, 24*sz, func() {
				gx = gr.tempLike(x.T)
				gxd := gx.Data // read-only capture keeps gx's cell off the heap
				if parallel.Inline(r, grain) {
					headDotGradXRange(gxd, res.grad.Data, a.T.Data, h, d, 0, r)
					return
				}
				parallel.For(r, grain, func(lo, hi int) {
					headDotGradXRange(gxd, res.grad.Data, a.T.Data, h, d, lo, hi)
				})
			})
			gr.accum(x, gx)
			gr.freeTemp(gx)
		}
		if a.requiresGrad {
			var ga *tensor.Tensor
			gr.run(2*sz, 24*sz, func() {
				ga = gr.tempLike(a.T)
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
			gr.accum(a, ga)
			gr.freeTemp(ga)
		}
	}
	return res
}

func headDotRange(out, x, a []float64, h, d, lo, hi int) {
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

func headDotGradXRange(gx, grad, a []float64, h, d, lo, hi int) {
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
		if parallel.Inline(r, grain) {
			mulHeadsRange(out.Data, x.T.Data, w.T.Data, h, d, 0, r)
			return
		}
		parallel.For(r, grain, func(lo, hi int) { mulHeadsRange(out.Data, x.T.Data, w.T.Data, h, d, lo, hi) })
	})
	res.backward = func(gr *Graph) {
		if x.requiresGrad {
			var gx *tensor.Tensor
			gr.run(sz, 32*sz, func() {
				gx = gr.tempLike(x.T)
				gxd := gx.Data // read-only capture keeps gx's cell off the heap
				if parallel.Inline(r, grain) {
					mulHeadsGradXRange(gxd, res.grad.Data, w.T.Data, h, d, 0, r)
					return
				}
				parallel.For(r, grain, func(lo, hi int) {
					mulHeadsGradXRange(gxd, res.grad.Data, w.T.Data, h, d, lo, hi)
				})
			})
			gr.accum(x, gx)
			gr.freeTemp(gx)
		}
		if w.requiresGrad {
			var gw *tensor.Tensor
			gr.run(sz, 32*sz, func() {
				gw = gr.tempLike(w.T)
				gwd := gw.Data // read-only capture keeps gw's cell off the heap
				if parallel.Inline(r, grain) {
					mulHeadsGradWRange(gwd, res.grad.Data, x.T.Data, h, d, 0, r)
					return
				}
				parallel.For(r, grain, func(lo, hi int) {
					mulHeadsGradWRange(gwd, res.grad.Data, x.T.Data, h, d, lo, hi)
				})
			})
			gr.accum(w, gw)
			gr.freeTemp(gw)
		}
	}
	return res
}

func mulHeadsRange(out, x, w []float64, h, d, lo, hi int) {
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

func mulHeadsGradXRange(gx, grad, w []float64, h, d, lo, hi int) {
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

func mulHeadsGradWRange(gw, grad, x []float64, h, d, lo, hi int) {
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
		if parallel.Inline(r, grain) {
			meanHeadsRange(out.Data, x.T.Data, heads, d, inv, 0, r)
			return
		}
		parallel.For(r, grain, func(lo, hi int) { meanHeadsRange(out.Data, x.T.Data, heads, d, inv, lo, hi) })
	})
	res.backward = func(gr *Graph) {
		var gx *tensor.Tensor
		gr.run(sz, 24*sz, func() {
			gx = gr.tempLike(x.T)
			gxd := gx.Data // read-only capture keeps gx's cell off the heap
			if parallel.Inline(r, grain) {
				meanHeadsGradRange(gxd, res.grad.Data, heads, d, inv, 0, r)
				return
			}
			parallel.For(r, grain, func(lo, hi int) {
				meanHeadsGradRange(gxd, res.grad.Data, heads, d, inv, lo, hi)
			})
		})
		gr.accum(x, gx)
		gr.freeTemp(gx)
	}
	return res
}

func meanHeadsRange(out, x []float64, heads, d int, inv float64, lo, hi int) {
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

func meanHeadsGradRange(gx, grad []float64, heads, d int, inv float64, lo, hi int) {
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
