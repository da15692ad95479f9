package ag

import (
	"fmt"
	"math"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// normArgs is a normalization kernel's operands over n rows of f columns,
// which each range function names after their roles: dst and aux are written,
// the rest read, s is a scalar. Batch norm and L2 row normalization use it,
// and so does GaussianWeight, which scores rows of x against the per-column
// vectors a (mu) and b (isig) as batch norm's eval pass does with gamma and
// invstd.
type normArgs struct {
	dst, aux, x, y, a, b, c []float64
	s                       float64
	n, f                    int
}

// BatchNorm applies 1-D batch normalization over the rows of x ([N,F]) with
// learnable gamma and beta ([F] parameters). In training mode it normalizes
// with batch statistics and updates the running estimates in place (with the
// given momentum); in eval mode it uses the running estimates. eps guards the
// variance. This is the op GIN and GatedGCN use after aggregation.
func (g *Graph) BatchNorm(x *Node, gamma, beta *Node, runMean, runVar *tensor.Tensor, momentum, eps float64, training bool) *Node {
	check2("BatchNorm", x)
	n, f := x.T.Rows(), x.T.Cols()
	if gamma.T.Size() != f || beta.T.Size() != f {
		panic(fmt.Sprintf("ag: BatchNorm gamma/beta must be [%d]", f))
	}
	sz := int64(n * f)
	batchStats := training && n > 1

	var xhat, invstd, out *tensor.Tensor
	var bmean, bstd, bvar *tensor.Tensor
	fwd := func() {
		if out == nil {
			xhat = g.get(n, f)
			invstd = g.get(f)
			out = g.get(n, f)
			if batchStats {
				bmean = g.get(f)
				bstd = g.get(f)
				bvar = g.get(f)
			}
		}
		mean, varr := runMean, runVar
		if batchStats {
			tensor.MeanStdInto(bmean, bstd, x.T)
			tensor.SquareInto(bvar, bstd)
			// update running statistics
			for j := 0; j < f; j++ {
				runMean.Data[j] = float64((1-momentum)*runMean.Data[j]) + float64(momentum*bmean.Data[j])
				runVar.Data[j] = float64((1-momentum)*runVar.Data[j]) + float64(momentum*bvar.Data[j])
			}
			mean, varr = bmean, bvar
		}
		for j := 0; j < f; j++ {
			invstd.Data[j] = 1 / math.Sqrt(varr.Data[j]+eps)
		}
		parallel.For(n, parallel.RowGrain(4*f), normArgs{dst: out.Data, aux: xhat.Data, x: x.T.Data, y: mean.Data, a: invstd.Data, b: gamma.T.Data, c: beta.T.Data, f: f}, batchNormRange)
	}
	g.run(6*sz, 48*sz, fwd)
	g.alloc(xhat)
	g.alloc(invstd)
	res := g.node(out, x.requiresGrad || gamma.requiresGrad || beta.requiresGrad, "batchnorm", nil)
	res.fwd, res.flops, res.bytes = fwd, 6*sz, 48*sz
	res.backward = func(gr *Graph) {
		if gamma.requiresGrad {
			var gg *tensor.Tensor
			gr.run(2*sz, 24*sz, func() {
				gg = gr.zeroTempLike(gamma.T)
				for i := 0; i < n; i++ {
					grow := res.grad.Row(i)
					hrow := xhat.Row(i)
					for j := 0; j < f; j++ {
						gg.Data[j] += float64(grow[j] * hrow[j])
					}
				}
			})
			gr.give(gamma, gg)
		}
		if beta.requiresGrad {
			var gb *tensor.Tensor
			gr.run(sz, 16*sz, func() {
				gb = gr.tempLike(beta.T)
				tensor.SumRowsInto(gb, res.grad)
			})
			gr.give(beta, gb)
		}
		if x.requiresGrad {
			var gx *tensor.Tensor
			if batchStats {
				var sumDy, sumDyXhat *tensor.Tensor
				gr.run(6*sz, 48*sz, func() {
					gx = gr.tempLike(x.T)
					sumDy = gr.zeroTempLike(gamma.T)
					sumDyXhat = gr.zeroTempLike(gamma.T)
					sdy, sdyx := sumDy.Data, sumDyXhat.Data
					// Standard batch-norm input gradient with batch statistics:
					// dx = (gamma*invstd/N) * (N*dy - sum(dy) - xhat*sum(dy*xhat))
					for i := 0; i < n; i++ {
						grow := res.grad.Row(i)
						hrow := xhat.Row(i)
						for j := 0; j < f; j++ {
							sdy[j] += grow[j]
							sdyx[j] += float64(grow[j] * hrow[j])
						}
					}
					inv := 1 / float64(n)
					parallel.For(n, parallel.RowGrain(6*f), normArgs{dst: gx.Data, x: res.grad.Data, aux: xhat.Data, a: gamma.T.Data, b: invstd.Data, y: sdy, c: sdyx, s: inv, n: n, f: f}, batchNormGradXRange)
				})
				gr.freeTemp(sumDy, sumDyXhat)
			} else {
				gr.run(6*sz, 48*sz, func() {
					gx = gr.tempLike(x.T)
					// Running statistics are constants: dx = dy*gamma*invstd.
					parallel.For(n, parallel.RowGrain(2*f), normArgs{dst: gx.Data, x: res.grad.Data, a: gamma.T.Data, b: invstd.Data, f: f}, batchNormGradXEvalRange)
				})
			}
			gr.give(x, gx)
		}
	}
	return res
}

func batchNormRange(k normArgs, lo, hi int) {
	out, xhat, x, mean, invstd, gamma, beta, f := k.dst, k.aux, k.x, k.y, k.a, k.b, k.c, k.f
	for i := lo; i < hi; i++ {
		xrow := x[i*f : (i+1)*f]
		hrow := xhat[i*f : (i+1)*f]
		orow := out[i*f : (i+1)*f]
		for j := 0; j < f; j++ {
			h := (xrow[j] - mean[j]) * invstd[j]
			hrow[j] = h
			orow[j] = float64(gamma[j]*h) + beta[j]
		}
	}
}

func batchNormGradXRange(k normArgs, lo, hi int) {
	gx, grad, xhat, gamma, invstd, sumDy, sumDyXhat, inv, n, f := k.dst, k.x, k.aux, k.a, k.b, k.y, k.c, k.s, k.n, k.f
	for i := lo; i < hi; i++ {
		grow := grad[i*f : (i+1)*f]
		hrow := xhat[i*f : (i+1)*f]
		xrow := gx[i*f : (i+1)*f]
		for j := 0; j < f; j++ {
			xrow[j] = gamma[j] * invstd[j] * inv *
				(float64(float64(n)*grow[j]) - sumDy[j] - float64(hrow[j]*sumDyXhat[j]))
		}
	}
}

func batchNormGradXEvalRange(k normArgs, lo, hi int) {
	gx, grad, gamma, invstd, f := k.dst, k.x, k.a, k.b, k.f
	for i := lo; i < hi; i++ {
		grow := grad[i*f : (i+1)*f]
		xrow := gx[i*f : (i+1)*f]
		for j := 0; j < f; j++ {
			xrow[j] = grow[j] * gamma[j] * invstd[j]
		}
	}
}

// L2NormalizeRows projects each row of x onto the unit ball:
// y_i = x_i / max(||x_i||, eps). GraphSAGE applies this between layers.
func (g *Graph) L2NormalizeRows(x *Node, eps float64) *Node {
	check2("L2NormalizeRows", x)
	n, f := x.T.Rows(), x.T.Cols()
	sz := int64(n * f)
	var norms, out *tensor.Tensor
	fwd := func() {
		if out == nil {
			norms = g.get(n)
			out = g.get(n, f)
		}
		parallel.For(n, parallel.RowGrain(3*f), normArgs{dst: out.Data, aux: norms.Data, x: x.T.Data, s: eps, f: f}, l2normRange)
	}
	g.run(2*sz, 32*sz, fwd)
	g.alloc(norms)
	res := g.node(out, x.requiresGrad, "l2norm", nil)
	res.fwd, res.flops, res.bytes = fwd, 2*sz, 32*sz
	res.backward = func(gr *Graph) {
		var gx *tensor.Tensor
		gr.run(4*sz, 40*sz, func() {
			gx = gr.tempLike(x.T)
			parallel.For(n, parallel.RowGrain(4*f), normArgs{dst: gx.Data, x: res.grad.Data, y: out.Data, aux: norms.Data, f: f}, l2normGradRange)
		})
		gr.give(x, gx)
	}
	return res
}

func l2normRange(k normArgs, lo, hi int) {
	out, norms, x, eps, f := k.dst, k.aux, k.x, k.s, k.f
	for i := lo; i < hi; i++ {
		xrow := x[i*f : (i+1)*f]
		var s float64
		for _, v := range xrow {
			s += float64(v * v)
		}
		nv := math.Sqrt(s)
		if nv < eps {
			nv = eps
		}
		norms[i] = nv
		orow := out[i*f : (i+1)*f]
		for j := 0; j < f; j++ {
			orow[j] = xrow[j] / nv
		}
	}
}

func l2normGradRange(k normArgs, lo, hi int) {
	gx, grad, y, norms, f := k.dst, k.x, k.y, k.aux, k.f
	for i := lo; i < hi; i++ {
		grow := grad[i*f : (i+1)*f]
		yrow := y[i*f : (i+1)*f]
		xrow := gx[i*f : (i+1)*f]
		var dot float64
		for j := 0; j < f; j++ {
			dot += float64(grow[j] * yrow[j])
		}
		inv := 1 / norms[i]
		for j := 0; j < f; j++ {
			xrow[j] = inv * (grow[j] - float64(yrow[j]*dot))
		}
	}
}

// GaussianWeight computes MoNet's kernel weights over pseudo-coordinates:
// w_e = exp(-1/2 * sum_d ((u_ed - mu_d) * isig_d)^2) for constant u ([E,D])
// and learnable mu, isig ([D] parameter nodes). Returns [E,1]. Gradients flow
// to mu and isig only (pseudo-coordinates are graph constants).
func (g *Graph) GaussianWeight(u *tensor.Tensor, mu, isig *Node) *Node {
	if u.Rank() != 2 {
		panic(fmt.Sprintf("ag: GaussianWeight pseudo-coords must be rank 2, got %v", u.Shape()))
	}
	e, d := u.Rows(), u.Cols()
	if mu.T.Size() != d || isig.T.Size() != d {
		panic(fmt.Sprintf("ag: GaussianWeight mu/isig must be [%d]", d))
	}
	sz := int64(e * d)
	var out *tensor.Tensor
	res := g.op(&out, mu.requiresGrad || isig.requiresGrad, "gaussianweight", 6*sz, 24*sz, func() {
		if out == nil {
			out = g.get(e, 1)
		}
		parallel.For(e, parallel.RowGrain(6*d), normArgs{dst: out.Data, x: u.Data, a: mu.T.Data, b: isig.T.Data, f: d}, gaussianWeightRange)
	})
	res.backward = func(gr *Graph) {
		var gmu, gsig *tensor.Tensor
		gr.run(8*sz, 32*sz, func() {
			gmu = gr.zeroTempLike(mu.T)
			gsig = gr.zeroTempLike(isig.T)
			for k := 0; k < e; k++ {
				urow := u.Row(k)
				dw := res.grad.Data[k] * out.Data[k]
				for j := 0; j < d; j++ {
					diff := urow[j] - mu.T.Data[j]
					is := isig.T.Data[j]
					// dw/dmu_j  = w * diff * isig^2
					gmu.Data[j] += float64(dw * diff * is * is)
					// dw/disig_j = -w * diff^2 * isig
					gsig.Data[j] += float64(-dw * diff * diff * is)
				}
			}
		})
		gr.give(mu, gmu)
		gr.give(isig, gsig)
	}
	return res
}

func gaussianWeightRange(k normArgs, lo, hi int) {
	out, u, mu, isig, d := k.dst, k.x, k.a, k.b, k.f
	for k := lo; k < hi; k++ {
		urow := u[k*d : (k+1)*d]
		var s float64
		for j := 0; j < d; j++ {
			z := (urow[j] - mu[j]) * isig[j]
			s += float64(z * z)
		}
		out[k] = math.Exp(-0.5 * s)
	}
}
