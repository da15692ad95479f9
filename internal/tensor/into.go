package tensor

import (
	"math"

	"repro/internal/parallel"
)

// The Into kernels write a caller-provided destination instead of allocating,
// so pooled buffers can be reused across training and serving steps with zero
// heap traffic. They are the only loop body of each op: the allocating forms
// in ops.go, rows.go and reduce.go are New + the Into kernel.
//
// Two structural rules keep the kernels allocation-free:
//
//   - The loop body lives in a package-level range function, and the closure
//     handed to parallel.For is only constructed when parallel.Inline says
//     the work will genuinely fan out (a closure passed to For always escapes
//     to the heap; one constructed and discarded on the serial path does not).
//
//   - dst may alias an input where noted; kernels write dst[i] from index i
//     only, so in-place application (dst == a) is safe for the elementwise
//     family.

// AddInto computes dst = a + b elementwise. dst may alias a or b.
func AddInto(dst, a, b *Tensor) {
	assertSameShape("AddInto", a, b)
	assertSameShape("AddInto", dst, a)
	if parallel.Inline(len(a.Data), elemGrain) {
		addRange(dst.Data, a.Data, b.Data, 0, len(a.Data))
		return
	}
	parallel.For(len(a.Data), elemGrain, func(lo, hi int) { addRange(dst.Data, a.Data, b.Data, lo, hi) })
}

func addRange(dst, a, b []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		dst[i] = a[i] + b[i]
	}
}

// SubInto computes dst = a - b elementwise. dst may alias a or b.
func SubInto(dst, a, b *Tensor) {
	assertSameShape("SubInto", a, b)
	assertSameShape("SubInto", dst, a)
	if parallel.Inline(len(a.Data), elemGrain) {
		subRange(dst.Data, a.Data, b.Data, 0, len(a.Data))
		return
	}
	parallel.For(len(a.Data), elemGrain, func(lo, hi int) { subRange(dst.Data, a.Data, b.Data, lo, hi) })
}

func subRange(dst, a, b []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		dst[i] = a[i] - b[i]
	}
}

// MulInto computes dst = a * b elementwise. dst may alias a or b.
func MulInto(dst, a, b *Tensor) {
	assertSameShape("MulInto", a, b)
	assertSameShape("MulInto", dst, a)
	if parallel.Inline(len(a.Data), elemGrain) {
		mulRange(dst.Data, a.Data, b.Data, 0, len(a.Data))
		return
	}
	parallel.For(len(a.Data), elemGrain, func(lo, hi int) { mulRange(dst.Data, a.Data, b.Data, lo, hi) })
}

func mulRange(dst, a, b []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		dst[i] = a[i] * b[i]
	}
}

// DivInto computes dst = a / b elementwise. dst may alias a or b.
func DivInto(dst, a, b *Tensor) {
	assertSameShape("DivInto", a, b)
	assertSameShape("DivInto", dst, a)
	if parallel.Inline(len(a.Data), elemGrain) {
		divRange(dst.Data, a.Data, b.Data, 0, len(a.Data))
		return
	}
	parallel.For(len(a.Data), elemGrain, func(lo, hi int) { divRange(dst.Data, a.Data, b.Data, lo, hi) })
}

func divRange(dst, a, b []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		dst[i] = a[i] / b[i]
	}
}

// DivGradBInto computes dst = (-dg / (b*b)) * a elementwise — the gradient of
// a/b with respect to b, as one fused pass. dst may alias dg.
func DivGradBInto(dst, dg, a, b *Tensor) {
	assertSameShape("DivGradBInto", dg, a)
	assertSameShape("DivGradBInto", a, b)
	assertSameShape("DivGradBInto", dst, a)
	if parallel.Inline(len(a.Data), elemGrain) {
		divGradBRange(dst.Data, dg.Data, a.Data, b.Data, 0, len(a.Data))
		return
	}
	parallel.For(len(a.Data), elemGrain, func(lo, hi int) {
		divGradBRange(dst.Data, dg.Data, a.Data, b.Data, lo, hi)
	})
}

func divGradBRange(dst, dg, a, b []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		dst[i] = (-dg[i] / (b[i] * b[i])) * a[i]
	}
}

// ScaleInto computes dst = s * t elementwise. dst may alias t.
func ScaleInto(dst, t *Tensor, s float64) {
	assertSameShape("ScaleInto", dst, t)
	if parallel.Inline(len(t.Data), elemGrain) {
		scaleRange(dst.Data, t.Data, s, 0, len(t.Data))
		return
	}
	parallel.For(len(t.Data), elemGrain, func(lo, hi int) { scaleRange(dst.Data, t.Data, s, lo, hi) })
}

func scaleRange(dst, t []float64, s float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		dst[i] = s * t[i]
	}
}

// NegInto computes dst = -t elementwise (as -1 * t, matching Neg). dst may
// alias t.
func NegInto(dst, t *Tensor) { ScaleInto(dst, t, -1) }

// AddScalarInto computes dst = t + s elementwise. dst may alias t.
func AddScalarInto(dst, t *Tensor, s float64) {
	assertSameShape("AddScalarInto", dst, t)
	if parallel.Inline(len(t.Data), elemGrain) {
		addScalarRange(dst.Data, t.Data, s, 0, len(t.Data))
		return
	}
	parallel.For(len(t.Data), elemGrain, func(lo, hi int) { addScalarRange(dst.Data, t.Data, s, lo, hi) })
}

func addScalarRange(dst, t []float64, s float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		dst[i] = t[i] + s
	}
}

// ExpInto computes dst = e^t elementwise. dst may alias t.
func ExpInto(dst, t *Tensor) {
	assertSameShape("ExpInto", dst, t)
	if parallel.Inline(len(t.Data), mapGrain) {
		expRange(dst.Data, t.Data, 0, len(t.Data))
		return
	}
	parallel.For(len(t.Data), mapGrain, func(lo, hi int) { expRange(dst.Data, t.Data, lo, hi) })
}

func expRange(dst, t []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		dst[i] = math.Exp(t[i])
	}
}

// SigmoidInto computes dst = 1/(1+e^-t) elementwise. dst may alias t.
func SigmoidInto(dst, t *Tensor) {
	assertSameShape("SigmoidInto", dst, t)
	if parallel.Inline(len(t.Data), mapGrain) {
		sigmoidRange(dst.Data, t.Data, 0, len(t.Data))
		return
	}
	parallel.For(len(t.Data), mapGrain, func(lo, hi int) { sigmoidRange(dst.Data, t.Data, lo, hi) })
}

func sigmoidRange(dst, t []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		dst[i] = 1 / (1 + math.Exp(-t[i]))
	}
}

// SigmoidGradInto computes dst = dg * y * (1-y) for y = sigmoid output.
// dst may alias dg.
func SigmoidGradInto(dst, dg, y *Tensor) {
	assertSameShape("SigmoidGradInto", dg, y)
	assertSameShape("SigmoidGradInto", dst, y)
	if parallel.Inline(len(y.Data), elemGrain) {
		sigmoidGradRange(dst.Data, dg.Data, y.Data, 0, len(y.Data))
		return
	}
	parallel.For(len(y.Data), elemGrain, func(lo, hi int) { sigmoidGradRange(dst.Data, dg.Data, y.Data, lo, hi) })
}

func sigmoidGradRange(dst, dg, y []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		dst[i] = dg[i] * y[i] * (1 - y[i])
	}
}

// TanhInto computes dst = tanh(t) elementwise. dst may alias t.
func TanhInto(dst, t *Tensor) {
	assertSameShape("TanhInto", dst, t)
	if parallel.Inline(len(t.Data), mapGrain) {
		tanhRange(dst.Data, t.Data, 0, len(t.Data))
		return
	}
	parallel.For(len(t.Data), mapGrain, func(lo, hi int) { tanhRange(dst.Data, t.Data, lo, hi) })
}

func tanhRange(dst, t []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		dst[i] = math.Tanh(t[i])
	}
}

// TanhGradInto computes dst = dg * (1 - y*y) for y = tanh output. dst may
// alias dg.
func TanhGradInto(dst, dg, y *Tensor) {
	assertSameShape("TanhGradInto", dg, y)
	assertSameShape("TanhGradInto", dst, y)
	if parallel.Inline(len(y.Data), elemGrain) {
		tanhGradRange(dst.Data, dg.Data, y.Data, 0, len(y.Data))
		return
	}
	parallel.For(len(y.Data), elemGrain, func(lo, hi int) { tanhGradRange(dst.Data, dg.Data, y.Data, lo, hi) })
}

func tanhGradRange(dst, dg, y []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		dst[i] = dg[i] * (1 - y[i]*y[i])
	}
}

// ReLUInto computes dst = max(0, t) elementwise (math.Max, so NaN inputs stay
// NaN). dst may alias t.
func ReLUInto(dst, t *Tensor) {
	assertSameShape("ReLUInto", dst, t)
	if parallel.Inline(len(t.Data), mapGrain) {
		reluRange(dst.Data, t.Data, 0, len(t.Data))
		return
	}
	parallel.For(len(t.Data), mapGrain, func(lo, hi int) { reluRange(dst.Data, t.Data, lo, hi) })
}

func reluRange(dst, t []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		dst[i] = math.Max(0, t[i])
	}
}

// ReLUGradInto computes dst = dg where x > 0 and 0 elsewhere. dst may alias dg.
func ReLUGradInto(dst, dg, x *Tensor) {
	assertSameShape("ReLUGradInto", dg, x)
	assertSameShape("ReLUGradInto", dst, x)
	if parallel.Inline(len(x.Data), elemGrain) {
		reluGradRange(dst.Data, dg.Data, x.Data, 0, len(x.Data))
		return
	}
	parallel.For(len(x.Data), elemGrain, func(lo, hi int) { reluGradRange(dst.Data, dg.Data, x.Data, lo, hi) })
}

func reluGradRange(dst, dg, x []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		if x[i] > 0 {
			dst[i] = dg[i]
		} else {
			dst[i] = 0
		}
	}
}

// LeakyReLUInto computes dst = t where t > 0 and slope*t elsewhere. dst may
// alias t.
func LeakyReLUInto(dst, t *Tensor, slope float64) {
	assertSameShape("LeakyReLUInto", dst, t)
	if parallel.Inline(len(t.Data), mapGrain) {
		leakyReLURange(dst.Data, t.Data, slope, 0, len(t.Data))
		return
	}
	parallel.For(len(t.Data), mapGrain, func(lo, hi int) { leakyReLURange(dst.Data, t.Data, slope, lo, hi) })
}

func leakyReLURange(dst, t []float64, slope float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		if v := t[i]; v > 0 {
			dst[i] = v
		} else {
			dst[i] = slope * v
		}
	}
}

// LeakyReLUGradInto computes dst = dg where x > 0 and slope*dg elsewhere.
// dst may alias dg.
func LeakyReLUGradInto(dst, dg, x *Tensor, slope float64) {
	assertSameShape("LeakyReLUGradInto", dg, x)
	assertSameShape("LeakyReLUGradInto", dst, x)
	if parallel.Inline(len(x.Data), elemGrain) {
		leakyReLUGradRange(dst.Data, dg.Data, x.Data, slope, 0, len(x.Data))
		return
	}
	parallel.For(len(x.Data), elemGrain, func(lo, hi int) {
		leakyReLUGradRange(dst.Data, dg.Data, x.Data, slope, lo, hi)
	})
}

func leakyReLUGradRange(dst, dg, x []float64, slope float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		if x[i] > 0 {
			dst[i] = dg[i]
		} else {
			dst[i] = slope * dg[i]
		}
	}
}

// ELUInto computes dst = t where t > 0 and alpha*(e^t - 1) elsewhere. dst may
// alias t.
func ELUInto(dst, t *Tensor, alpha float64) {
	assertSameShape("ELUInto", dst, t)
	if parallel.Inline(len(t.Data), mapGrain) {
		eluRange(dst.Data, t.Data, alpha, 0, len(t.Data))
		return
	}
	parallel.For(len(t.Data), mapGrain, func(lo, hi int) { eluRange(dst.Data, t.Data, alpha, lo, hi) })
}

func eluRange(dst, t []float64, alpha float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		if v := t[i]; v > 0 {
			dst[i] = v
		} else {
			dst[i] = alpha * (math.Exp(v) - 1)
		}
	}
}

// ELUGradInto computes dst = dg where y > 0 and dg*(y+alpha) elsewhere, for
// y = ELU output. dst may alias dg.
func ELUGradInto(dst, dg, y *Tensor, alpha float64) {
	assertSameShape("ELUGradInto", dg, y)
	assertSameShape("ELUGradInto", dst, y)
	if parallel.Inline(len(y.Data), elemGrain) {
		eluGradRange(dst.Data, dg.Data, y.Data, alpha, 0, len(y.Data))
		return
	}
	parallel.For(len(y.Data), elemGrain, func(lo, hi int) { eluGradRange(dst.Data, dg.Data, y.Data, alpha, lo, hi) })
}

func eluGradRange(dst, dg, y []float64, alpha float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		if y[i] > 0 {
			dst[i] = dg[i]
		} else {
			dst[i] = dg[i] * (y[i] + alpha)
		}
	}
}

// SquareInto computes dst = t*t elementwise. dst may alias t.
func SquareInto(dst, t *Tensor) {
	assertSameShape("SquareInto", dst, t)
	if parallel.Inline(len(t.Data), mapGrain) {
		squareRange(dst.Data, t.Data, 0, len(t.Data))
		return
	}
	parallel.For(len(t.Data), mapGrain, func(lo, hi int) { squareRange(dst.Data, t.Data, lo, hi) })
}

func squareRange(dst, t []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		dst[i] = t[i] * t[i]
	}
}

// SquareGradInto computes dst = 2 * dg * x. dst may alias dg.
func SquareGradInto(dst, dg, x *Tensor) {
	assertSameShape("SquareGradInto", dg, x)
	assertSameShape("SquareGradInto", dst, x)
	if parallel.Inline(len(x.Data), elemGrain) {
		squareGradRange(dst.Data, dg.Data, x.Data, 0, len(x.Data))
		return
	}
	parallel.For(len(x.Data), elemGrain, func(lo, hi int) { squareGradRange(dst.Data, dg.Data, x.Data, lo, hi) })
}

func squareGradRange(dst, dg, x []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		dst[i] = 2 * dg[i] * x[i]
	}
}

// AddRowVectorInto computes dst = m + v broadcast over rows: m [N,F], v [F].
// dst may alias m.
func AddRowVectorInto(dst, m, v *Tensor) {
	f := m.Cols()
	if v.Size() != f {
		panic("tensor: AddRowVectorInto vector width mismatch")
	}
	assertSameShape("AddRowVectorInto", dst, m)
	n := m.Rows()
	grain := parallel.RowGrain(f)
	if parallel.Inline(n, grain) {
		addRowVectorRange(dst.Data, m.Data, v.Data, f, 0, n)
		return
	}
	parallel.For(n, grain, func(lo, hi int) { addRowVectorRange(dst.Data, m.Data, v.Data, f, lo, hi) })
}

func addRowVectorRange(dst, m, v []float64, f, lo, hi int) {
	for i := lo; i < hi; i++ {
		row := m[i*f : (i+1)*f]
		drow := dst[i*f : (i+1)*f]
		for j := 0; j < f; j++ {
			drow[j] = row[j] + v[j]
		}
	}
}

// MulRowVectorInto computes dst = m with every row multiplied elementwise by
// v: m [N,F], v [F]. dst may alias m.
func MulRowVectorInto(dst, m, v *Tensor) {
	f := m.Cols()
	if v.Size() != f {
		panic("tensor: MulRowVectorInto vector width mismatch")
	}
	assertSameShape("MulRowVectorInto", dst, m)
	n := m.Rows()
	grain := parallel.RowGrain(f)
	if parallel.Inline(n, grain) {
		mulRowVectorRange(dst.Data, m.Data, v.Data, f, 0, n)
		return
	}
	parallel.For(n, grain, func(lo, hi int) { mulRowVectorRange(dst.Data, m.Data, v.Data, f, lo, hi) })
}

func mulRowVectorRange(dst, m, v []float64, f, lo, hi int) {
	for i := lo; i < hi; i++ {
		row := m[i*f : (i+1)*f]
		drow := dst[i*f : (i+1)*f]
		for j := 0; j < f; j++ {
			drow[j] = row[j] * v[j]
		}
	}
}

// MulColVectorInto computes dst = m with row i scaled by v[i]: m [N,F],
// v of size N. dst may alias m.
func MulColVectorInto(dst, m, v *Tensor) {
	n, f := m.Rows(), m.Cols()
	if v.Size() != n {
		panic("tensor: MulColVectorInto vector length mismatch")
	}
	assertSameShape("MulColVectorInto", dst, m)
	grain := parallel.RowGrain(f)
	if parallel.Inline(n, grain) {
		mulColVectorRange(dst.Data, m.Data, v.Data, f, 0, n)
		return
	}
	parallel.For(n, grain, func(lo, hi int) { mulColVectorRange(dst.Data, m.Data, v.Data, f, lo, hi) })
}

func mulColVectorRange(dst, m, v []float64, f, lo, hi int) {
	for i := lo; i < hi; i++ {
		s := v[i]
		row := m[i*f : (i+1)*f]
		drow := dst[i*f : (i+1)*f]
		for j := 0; j < f; j++ {
			drow[j] = s * row[j]
		}
	}
}

// MulSumColsInto computes dst[i] = Σ_j a[i,j]*b[i,j] for a, b [N,F] and dst of
// size N — the fused form of SumCols(Mul(a, b)) with identical per-element
// rounding order. dst must not alias a or b.
func MulSumColsInto(dst, a, b *Tensor) {
	assertSameShape("MulSumColsInto", a, b)
	n, f := a.Rows(), a.Cols()
	if dst.Size() != n {
		panic("tensor: MulSumColsInto dst length mismatch")
	}
	grain := parallel.RowGrain(2 * f)
	if parallel.Inline(n, grain) {
		mulSumColsRange(dst.Data, a.Data, b.Data, f, 0, n)
		return
	}
	parallel.For(n, grain, func(lo, hi int) { mulSumColsRange(dst.Data, a.Data, b.Data, f, lo, hi) })
}

func mulSumColsRange(dst, a, b []float64, f, lo, hi int) {
	for i := lo; i < hi; i++ {
		arow := a[i*f : (i+1)*f]
		brow := b[i*f : (i+1)*f]
		var s float64
		for j := 0; j < f; j++ {
			s += arow[j] * brow[j]
		}
		dst[i] = s
	}
}

// CopyInto copies src into dst (same shape) as a bulk memcpy.
func CopyInto(dst, src *Tensor) { dst.CopyFrom(src) }

// FillInto sets every element of dst to v (the Into form of Full).
func FillInto(dst *Tensor, v float64) { dst.Fill(v) }
