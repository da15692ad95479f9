package ag

import (
	"fmt"

	"repro/internal/tensor"
)

// Every op follows the record/replay discipline: the forward closure acquires
// its output buffer lazily on its first (recording) run — so the allocation
// is charged inside the kernel, exactly like the historical eager ops — and
// writes it in place through the tensor Into kernels. g.op remembers the
// closure so ReplayForward can re-execute it against the recorded buffers
// without touching the allocator. Backward closures draw scratch from
// gr.tempLike inside their kernel and return it with gr.freeTemp, so a
// replayed step performs no heap allocation. Kernel FLOP/byte accounting and
// floating-point evaluation order are identical to the historical eager
// implementations.

// MatMul returns a @ b for [M,K] @ [K,N] nodes.
func (g *Graph) MatMul(a, b *Node) *Node {
	check2("MatMul", a)
	check2("MatMul", b)
	m, k, n := a.T.Dim(0), a.T.Dim(1), b.T.Dim(1)
	flops := int64(2 * m * k * n)
	bytes := int64(8 * (m*k + k*n + m*n))
	var out *tensor.Tensor
	res := g.op(&out, a.requiresGrad || b.requiresGrad, "matmul", flops, bytes, func() {
		if out == nil {
			out = g.get(m, n)
		}
		tensor.MatMulInto(out, a.T, b.T)
	})
	res.backward = func(gr *Graph) {
		if a.requiresGrad {
			var ga *tensor.Tensor
			gr.run(flops, bytes, func() {
				ga = gr.tempLike(a.T)
				tensor.MatMulTBInto(ga, res.grad, b.T)
			})
			gr.accum(a, ga)
			gr.freeTemp(ga)
		}
		if b.requiresGrad {
			var gb *tensor.Tensor
			gr.run(flops, bytes, func() {
				gb = gr.tempLike(b.T)
				tensor.MatMulTAInto(gb, a.T, res.grad)
			})
			gr.accum(b, gb)
			gr.freeTemp(gb)
		}
	}
	return res
}

// Add returns a + b for same-shaped nodes.
func (g *Graph) Add(a, b *Node) *Node {
	n := int64(a.T.Size())
	var out *tensor.Tensor
	res := g.op(&out, a.requiresGrad || b.requiresGrad, "add", n, 24*n, func() {
		if out == nil {
			out = g.getLike(a.T)
		}
		tensor.AddInto(out, a.T, b.T)
	})
	res.backward = func(gr *Graph) {
		gr.accum(a, res.grad)
		gr.accum(b, res.grad)
	}
	return res
}

// Sub returns a - b for same-shaped nodes.
func (g *Graph) Sub(a, b *Node) *Node {
	n := int64(a.T.Size())
	var out *tensor.Tensor
	res := g.op(&out, a.requiresGrad || b.requiresGrad, "sub", n, 24*n, func() {
		if out == nil {
			out = g.getLike(a.T)
		}
		tensor.SubInto(out, a.T, b.T)
	})
	res.backward = func(gr *Graph) {
		gr.accum(a, res.grad)
		if b.requiresGrad {
			var neg *tensor.Tensor
			gr.run(n, 16*n, func() {
				neg = gr.tempLike(b.T)
				tensor.NegInto(neg, res.grad)
			})
			gr.accum(b, neg)
			gr.freeTemp(neg)
		}
	}
	return res
}

// Mul returns the elementwise product of same-shaped nodes.
func (g *Graph) Mul(a, b *Node) *Node {
	n := int64(a.T.Size())
	var out *tensor.Tensor
	res := g.op(&out, a.requiresGrad || b.requiresGrad, "mul", n, 24*n, func() {
		if out == nil {
			out = g.getLike(a.T)
		}
		tensor.MulInto(out, a.T, b.T)
	})
	res.backward = func(gr *Graph) {
		if a.requiresGrad {
			var ga *tensor.Tensor
			gr.run(n, 24*n, func() {
				ga = gr.tempLike(a.T)
				tensor.MulInto(ga, res.grad, b.T)
			})
			gr.accum(a, ga)
			gr.freeTemp(ga)
		}
		if b.requiresGrad {
			var gb *tensor.Tensor
			gr.run(n, 24*n, func() {
				gb = gr.tempLike(b.T)
				tensor.MulInto(gb, res.grad, a.T)
			})
			gr.accum(b, gb)
			gr.freeTemp(gb)
		}
	}
	return res
}

// Div returns the elementwise quotient a / b of same-shaped nodes.
func (g *Graph) Div(a, b *Node) *Node {
	n := int64(a.T.Size())
	var out *tensor.Tensor
	res := g.op(&out, a.requiresGrad || b.requiresGrad, "div", n, 24*n, func() {
		if out == nil {
			out = g.getLike(a.T)
		}
		tensor.DivInto(out, a.T, b.T)
	})
	res.backward = func(gr *Graph) {
		if a.requiresGrad {
			var ga *tensor.Tensor
			gr.run(n, 24*n, func() {
				ga = gr.tempLike(a.T)
				tensor.DivInto(ga, res.grad, b.T)
			})
			gr.accum(a, ga)
			gr.freeTemp(ga)
		}
		if b.requiresGrad {
			var gb *tensor.Tensor
			gr.run(3*n, 32*n, func() {
				gb = gr.tempLike(b.T)
				tensor.DivGradBInto(gb, res.grad, a.T, b.T)
			})
			gr.accum(b, gb)
			gr.freeTemp(gb)
		}
	}
	return res
}

// Scale returns s * a.
func (g *Graph) Scale(a *Node, s float64) *Node {
	n := int64(a.T.Size())
	var out *tensor.Tensor
	res := g.op(&out, a.requiresGrad, "scale", n, 16*n, func() {
		if out == nil {
			out = g.getLike(a.T)
		}
		tensor.ScaleInto(out, a.T, s)
	})
	res.backward = func(gr *Graph) {
		var ga *tensor.Tensor
		gr.run(n, 16*n, func() {
			ga = gr.tempLike(a.T)
			tensor.ScaleInto(ga, res.grad, s)
		})
		gr.accum(a, ga)
		gr.freeTemp(ga)
	}
	return res
}

// AddScalar returns a + s elementwise.
func (g *Graph) AddScalar(a *Node, s float64) *Node {
	n := int64(a.T.Size())
	var out *tensor.Tensor
	res := g.op(&out, a.requiresGrad, "addscalar", n, 16*n, func() {
		if out == nil {
			out = g.getLike(a.T)
		}
		tensor.AddScalarInto(out, a.T, s)
	})
	res.backward = func(gr *Graph) { gr.accum(a, res.grad) }
	return res
}

// AddBias returns m + b broadcast over rows: m is [N,F], b is [F].
func (g *Graph) AddBias(m, b *Node) *Node {
	check2("AddBias", m)
	n := int64(m.T.Size())
	var out *tensor.Tensor
	res := g.op(&out, m.requiresGrad || b.requiresGrad, "addbias", n, 24*n, func() {
		if out == nil {
			out = g.getLike(m.T)
		}
		tensor.AddRowVectorInto(out, m.T, b.T)
	})
	res.backward = func(gr *Graph) {
		gr.accum(m, res.grad)
		if b.requiresGrad {
			var gb *tensor.Tensor
			gr.run(n, 8*n, func() {
				gb = gr.tempLike(b.T)
				tensor.SumRowsInto(gb, res.grad)
			})
			gr.accum(b, gb)
			gr.freeTemp(gb)
		}
	}
	return res
}

// MulBroadcastCol returns x ([N,F]) with row i multiplied by w[i] (w is [N]
// or [N,1]). Gradients flow to both operands; this is the op behind
// attention/gate-weighted aggregation.
func (g *Graph) MulBroadcastCol(x, w *Node) *Node {
	check2("MulBroadcastCol", x)
	n := x.T.Rows()
	if w.T.Size() != n {
		panic(fmt.Sprintf("ag: MulBroadcastCol weight size %v for %d rows", w.T.Shape(), n))
	}
	wv := w.T.Reshape(n)
	sz := int64(x.T.Size())
	var out *tensor.Tensor
	res := g.op(&out, x.requiresGrad || w.requiresGrad, "mulbcol", sz, 24*sz, func() {
		if out == nil {
			out = g.getLike(x.T)
		}
		tensor.MulColVectorInto(out, x.T, wv)
	})
	res.backward = func(gr *Graph) {
		if x.requiresGrad {
			var gx *tensor.Tensor
			gr.run(sz, 24*sz, func() {
				gx = gr.tempLike(x.T)
				tensor.MulColVectorInto(gx, res.grad, wv)
			})
			gr.accum(x, gx)
			gr.freeTemp(gx)
		}
		if w.requiresGrad {
			var gw *tensor.Tensor
			gr.run(sz, 16*sz, func() {
				gw = gr.tempLike(w.T)
				tensor.MulSumColsInto(gw, res.grad, x.T)
			})
			gr.accum(w, gw)
			gr.freeTemp(gw)
		}
	}
	return res
}

// ReLU returns max(0, a) elementwise.
func (g *Graph) ReLU(a *Node) *Node {
	n := int64(a.T.Size())
	var out *tensor.Tensor
	res := g.op(&out, a.requiresGrad, "relu", n, 16*n, func() {
		if out == nil {
			out = g.getLike(a.T)
		}
		tensor.ReLUInto(out, a.T)
	})
	res.backward = func(gr *Graph) {
		var ga *tensor.Tensor
		gr.run(n, 24*n, func() {
			ga = gr.tempLike(a.T)
			tensor.ReLUGradInto(ga, res.grad, a.T)
		})
		gr.accum(a, ga)
		gr.freeTemp(ga)
	}
	return res
}

// LeakyReLU returns a where positive and slope*a elsewhere.
func (g *Graph) LeakyReLU(a *Node, slope float64) *Node {
	n := int64(a.T.Size())
	var out *tensor.Tensor
	res := g.op(&out, a.requiresGrad, "leakyrelu", n, 16*n, func() {
		if out == nil {
			out = g.getLike(a.T)
		}
		tensor.LeakyReLUInto(out, a.T, slope)
	})
	res.backward = func(gr *Graph) {
		var ga *tensor.Tensor
		gr.run(n, 24*n, func() {
			ga = gr.tempLike(a.T)
			tensor.LeakyReLUGradInto(ga, res.grad, a.T, slope)
		})
		gr.accum(a, ga)
		gr.freeTemp(ga)
	}
	return res
}

// ELU returns a where positive and alpha*(e^a - 1) elsewhere.
func (g *Graph) ELU(a *Node, alpha float64) *Node {
	n := int64(a.T.Size())
	var out *tensor.Tensor
	res := g.op(&out, a.requiresGrad, "elu", 2*n, 16*n, func() {
		if out == nil {
			out = g.getLike(a.T)
		}
		tensor.ELUInto(out, a.T, alpha)
	})
	res.backward = func(gr *Graph) {
		var ga *tensor.Tensor
		gr.run(2*n, 24*n, func() {
			ga = gr.tempLike(a.T)
			tensor.ELUGradInto(ga, res.grad, out, alpha)
		})
		gr.accum(a, ga)
		gr.freeTemp(ga)
	}
	return res
}

// Sigmoid returns the logistic function elementwise.
func (g *Graph) Sigmoid(a *Node) *Node {
	n := int64(a.T.Size())
	var out *tensor.Tensor
	res := g.op(&out, a.requiresGrad, "sigmoid", 4*n, 16*n, func() {
		if out == nil {
			out = g.getLike(a.T)
		}
		tensor.SigmoidInto(out, a.T)
	})
	res.backward = func(gr *Graph) {
		var ga *tensor.Tensor
		gr.run(3*n, 24*n, func() {
			ga = gr.tempLike(a.T)
			tensor.SigmoidGradInto(ga, res.grad, out)
		})
		gr.accum(a, ga)
		gr.freeTemp(ga)
	}
	return res
}

// Square returns a*a elementwise.
func (g *Graph) Square(a *Node) *Node {
	n := int64(a.T.Size())
	var out *tensor.Tensor
	res := g.op(&out, a.requiresGrad, "square", n, 16*n, func() {
		if out == nil {
			out = g.getLike(a.T)
		}
		tensor.SquareInto(out, a.T)
	})
	res.backward = func(gr *Graph) {
		var ga *tensor.Tensor
		gr.run(2*n, 24*n, func() {
			ga = gr.tempLike(a.T)
			tensor.SquareGradInto(ga, res.grad, a.T)
		})
		gr.accum(a, ga)
		gr.freeTemp(ga)
	}
	return res
}

// ConcatCols concatenates nodes with equal row counts along the feature axis.
func (g *Graph) ConcatCols(parts ...*Node) *Node {
	ts := make([]*tensor.Tensor, len(parts))
	req := false
	var total int64
	cols := 0
	for i, p := range parts {
		check2("ConcatCols", p)
		ts[i] = p.T
		req = req || p.requiresGrad
		total += int64(p.T.Size())
		cols += p.T.Cols()
	}
	rows := parts[0].T.Rows()
	var out *tensor.Tensor
	res := g.op(&out, req, "concatcols", 0, 16*total, func() {
		if out == nil {
			out = g.get(rows, cols)
		}
		tensor.ConcatColsInto(out, ts...)
	})
	gtmp := make([]*tensor.Tensor, len(parts))
	res.backward = func(gr *Graph) {
		gr.run(0, 16*total, func() {
			for i, p := range parts {
				gtmp[i] = gr.tempLike(p.T)
			}
			tensor.SplitColsInto(gtmp, res.grad)
		})
		for i, p := range parts {
			gr.accum(p, gtmp[i])
		}
		gr.freeTemp(gtmp...)
	}
	return res
}

// Dropout zeroes each element with probability p and scales survivors by
// 1/(1-p) (inverted dropout). With training=false it is the identity.
func (g *Graph) Dropout(a *Node, p float64, training bool, rng *tensor.RNG) *Node {
	if !training || p <= 0 {
		return a
	}
	if p >= 1 {
		panic(fmt.Sprintf("ag: dropout probability %v must be < 1", p))
	}
	n := int64(a.T.Size())
	var mask, out *tensor.Tensor
	fwd := func() {
		if out == nil {
			mask = g.getLike(a.T)
			out = g.getLike(a.T)
		}
		// Mask generation is part of the dropout kernel (cuRAND on a GPU);
		// each replay draws a fresh mask from the same RNG stream an eager
		// step would have consumed.
		rng.BernoulliInto(mask, 1-p)
		tensor.ScaleInPlace(mask, 1/(1-p))
		tensor.MulInto(out, a.T, mask)
	}
	g.run(3*n, 24*n, fwd)
	g.alloc(mask)
	res := g.node(out, a.requiresGrad, "dropout", nil)
	res.fwd, res.flops, res.bytes = fwd, 3*n, 24*n
	res.backward = func(gr *Graph) {
		var ga *tensor.Tensor
		gr.run(n, 24*n, func() {
			ga = gr.tempLike(a.T)
			tensor.MulInto(ga, res.grad, mask)
		})
		gr.accum(a, ga)
		gr.freeTemp(ga)
	}
	return res
}

// ScaleByScalar multiplies every element of x by the scalar node s (shape
// [1]), with gradients to both. GIN's learnable (1+eps) factor uses this.
func (g *Graph) ScaleByScalar(x, s *Node) *Node {
	if s.T.Size() != 1 {
		panic(fmt.Sprintf("ag: ScaleByScalar wants scalar node, got %v", s.T.Shape()))
	}
	n := int64(x.T.Size())
	var out *tensor.Tensor
	res := g.op(&out, x.requiresGrad || s.requiresGrad, "scalebyscalar", n, 16*n, func() {
		if out == nil {
			out = g.getLike(x.T)
		}
		tensor.ScaleInto(out, x.T, s.T.Data[0])
	})
	res.backward = func(gr *Graph) {
		if x.requiresGrad {
			var gx *tensor.Tensor
			gr.run(n, 16*n, func() {
				gx = gr.tempLike(x.T)
				tensor.ScaleInto(gx, res.grad, s.T.Data[0])
			})
			gr.accum(x, gx)
			gr.freeTemp(gx)
		}
		if s.requiresGrad {
			var gs *tensor.Tensor
			gr.run(2*n, 16*n, func() {
				gs = gr.tempLike(s.T)
				gs.Data[0] = tensor.Dot(res.grad, x.T)
			})
			gr.accum(s, gs)
			gr.freeTemp(gs)
		}
	}
	return res
}

// Copy materializes a's value in a fresh buffer (an explicit device copy
// with pass-through gradient). DGL layers use it when storing per-edge
// tensors into the graph's edge frame — extra kernels PyG's transient
// tensors avoid.
func (g *Graph) Copy(a *Node) *Node {
	n := int64(a.T.Size())
	var out *tensor.Tensor
	res := g.op(&out, a.requiresGrad, "copy", 0, 16*n, func() {
		if out == nil {
			out = g.getLike(a.T)
		}
		tensor.CopyInto(out, a.T)
	})
	res.backward = func(gr *Graph) { gr.accum(a, res.grad) }
	return res
}

// MeanAll reduces a node to its scalar mean.
func (g *Graph) MeanAll(a *Node) *Node {
	n := int64(a.T.Size())
	var out *tensor.Tensor
	res := g.op(&out, a.requiresGrad, "meanall", n, 8*n, func() {
		if out == nil {
			out = g.get(1)
		}
		out.Data[0] = tensor.Mean(a.T)
	})
	res.backward = func(gr *Graph) {
		var ga *tensor.Tensor
		gr.run(n, 8*n, func() {
			ga = gr.tempLike(a.T)
			tensor.FillInto(ga, res.grad.Data[0]/float64(a.T.Size()))
		})
		gr.accum(a, ga)
		gr.freeTemp(ga)
	}
	return res
}
