package tensor

import (
	"math"

	"repro/internal/parallel"
)

// The Into kernels write a caller-provided destination instead of allocating,
// so pooled buffers can be reused across training and serving steps with zero
// heap traffic. They are the only loop body of each op.
//
// Each kernel is one parallel.For call: its operands travel as one value of
// an argument type shared by its family (ew for the flat elementwise kernels,
// rowArgs for the row kernels) to a package-level range function, so neither
// the serial nor the fan-out path allocates.
//
// dst may alias an input where noted; kernels write dst[i] from index i
// only, so in-place application (dst == a) is safe for the elementwise
// family.

// ew is a flat elementwise kernel's operands: dst[i] is computed from a[i],
// b[i], c[i] and the scalar s, whichever the kernel reads. Range functions
// copy the fields they read into locals before looping (a struct this wide
// stays in memory, and a field read inside the loop is reloaded per
// element), sliced to [lo:hi] so that a loop ranging over dst has no bounds
// check.
type ew struct {
	dst, a, b, c []float64
	s            float64
}

// rowArgs is a row kernel's operands: rows of f columns of a, combined with
// b, land in dst.
type rowArgs struct {
	dst, a, b []float64
	f         int
}

// AddInto computes dst = a + b elementwise. dst may alias a or b.
func AddInto(dst, a, b *Tensor) {
	assertSameShape("AddInto", a, b)
	assertSameShape("AddInto", dst, a)
	parallel.For(len(a.Data), elemGrain, ew{dst: dst.Data, a: a.Data, b: b.Data}, addRange)
}

func addRange(k ew, lo, hi int) {
	dst, a, b := k.dst[lo:hi], k.a[lo:hi], k.b[lo:hi]
	for i := range dst {
		dst[i] = a[i] + b[i]
	}
}

// SubInto computes dst = a - b elementwise. dst may alias a or b.
func SubInto(dst, a, b *Tensor) {
	assertSameShape("SubInto", a, b)
	assertSameShape("SubInto", dst, a)
	parallel.For(len(a.Data), elemGrain, ew{dst: dst.Data, a: a.Data, b: b.Data}, subRange)
}

func subRange(k ew, lo, hi int) {
	dst, a, b := k.dst[lo:hi], k.a[lo:hi], k.b[lo:hi]
	for i := range dst {
		dst[i] = a[i] - b[i]
	}
}

// MulInto computes dst = a * b elementwise. dst may alias a or b.
func MulInto(dst, a, b *Tensor) {
	assertSameShape("MulInto", a, b)
	assertSameShape("MulInto", dst, a)
	parallel.For(len(a.Data), elemGrain, ew{dst: dst.Data, a: a.Data, b: b.Data}, mulRange)
}

func mulRange(k ew, lo, hi int) {
	dst, a, b := k.dst[lo:hi], k.a[lo:hi], k.b[lo:hi]
	for i := range dst {
		dst[i] = a[i] * b[i]
	}
}

// DivInto computes dst = a / b elementwise. dst may alias a or b.
func DivInto(dst, a, b *Tensor) {
	assertSameShape("DivInto", a, b)
	assertSameShape("DivInto", dst, a)
	parallel.For(len(a.Data), elemGrain, ew{dst: dst.Data, a: a.Data, b: b.Data}, divRange)
}

func divRange(k ew, lo, hi int) {
	dst, a, b := k.dst[lo:hi], k.a[lo:hi], k.b[lo:hi]
	for i := range dst {
		dst[i] = a[i] / b[i]
	}
}

// DivGradBInto computes dst = (-dg / (b*b)) * a elementwise — the gradient of
// a/b with respect to b, as one fused pass. dst may alias dg.
func DivGradBInto(dst, dg, a, b *Tensor) {
	assertSameShape("DivGradBInto", dg, a)
	assertSameShape("DivGradBInto", a, b)
	assertSameShape("DivGradBInto", dst, a)
	parallel.For(len(a.Data), elemGrain, ew{dst: dst.Data, a: dg.Data, b: a.Data, c: b.Data}, divGradBRange)
}

func divGradBRange(k ew, lo, hi int) {
	dst, dg, a, b := k.dst[lo:hi], k.a[lo:hi], k.b[lo:hi], k.c[lo:hi]
	for i := range dst {
		dst[i] = (-dg[i] / (b[i] * b[i])) * a[i]
	}
}

// ScaleInto computes dst = s * t elementwise. dst may alias t.
func ScaleInto(dst, t *Tensor, s float64) {
	assertSameShape("ScaleInto", dst, t)
	parallel.For(len(t.Data), elemGrain, ew{dst: dst.Data, a: t.Data, s: s}, scaleRange)
}

func scaleRange(k ew, lo, hi int) {
	dst, t, s := k.dst[lo:hi], k.a[lo:hi], k.s
	for i := range dst {
		dst[i] = s * t[i]
	}
}

// NegInto computes dst = -t elementwise (as -1 * t, matching Neg). dst may
// alias t.
func NegInto(dst, t *Tensor) { ScaleInto(dst, t, -1) }

// AddScalarInto computes dst = t + s elementwise. dst may alias t.
func AddScalarInto(dst, t *Tensor, s float64) {
	assertSameShape("AddScalarInto", dst, t)
	parallel.For(len(t.Data), elemGrain, ew{dst: dst.Data, a: t.Data, s: s}, addScalarRange)
}

func addScalarRange(k ew, lo, hi int) {
	dst, t, s := k.dst[lo:hi], k.a[lo:hi], k.s
	for i := range dst {
		dst[i] = t[i] + s
	}
}

// SigmoidInto computes dst = 1/(1+e^-t) elementwise. dst may alias t.
func SigmoidInto(dst, t *Tensor) {
	assertSameShape("SigmoidInto", dst, t)
	parallel.For(len(t.Data), mapGrain, ew{dst: dst.Data, a: t.Data}, sigmoidRange)
}

func sigmoidRange(k ew, lo, hi int) {
	dst, t := k.dst[lo:hi], k.a[lo:hi]
	for i := range dst {
		dst[i] = 1 / (1 + math.Exp(-t[i]))
	}
}

// SigmoidGradInto computes dst = dg * y * (1-y) for y = sigmoid output.
// dst may alias dg.
func SigmoidGradInto(dst, dg, y *Tensor) {
	assertSameShape("SigmoidGradInto", dg, y)
	assertSameShape("SigmoidGradInto", dst, y)
	parallel.For(len(y.Data), elemGrain, ew{dst: dst.Data, a: dg.Data, b: y.Data}, sigmoidGradRange)
}

func sigmoidGradRange(k ew, lo, hi int) {
	dst, dg, y := k.dst[lo:hi], k.a[lo:hi], k.b[lo:hi]
	for i := range dst {
		dst[i] = dg[i] * y[i] * (1 - y[i])
	}
}

// ReLUInto computes dst = max(0, t) elementwise, math.Max(0, t) bit for bit:
// −0 gives +0 and every NaN gives math.NaN(). dst may alias t.
func ReLUInto(dst, t *Tensor) {
	assertSameShape("ReLUInto", dst, t)
	parallel.For(len(t.Data), mapGrain, ew{dst: dst.Data, a: t.Data}, reluRange)
}

// reluRange works on the bit patterns, so no branch depends on the sign:
// activations are about half negative, and a compare-and-branch form
// mispredicts on every other element (slower than the math.Max call).
func reluRange(k ew, lo, hi int) {
	t, dst := k.a[lo:hi], k.dst[lo:hi]
	for i, v := range t {
		b := math.Float64bits(v)
		r := b &^ uint64(int64(b)>>63) // a set sign bit (−0 too) gives +0
		if b<<1 > 0x7FF<<53 {          // NaN, any sign or payload
			r = math.Float64bits(math.NaN())
		}
		dst[i] = math.Float64frombits(r)
	}
}

// ReLUGradInto computes dst = dg where x > 0 and 0 elsewhere. dst may alias dg.
func ReLUGradInto(dst, dg, x *Tensor) {
	assertSameShape("ReLUGradInto", dg, x)
	assertSameShape("ReLUGradInto", dst, x)
	parallel.For(len(x.Data), elemGrain, ew{dst: dst.Data, a: dg.Data, b: x.Data}, reluGradRange)
}

func reluGradRange(k ew, lo, hi int) {
	dst, dg, x := k.dst[lo:hi], k.a[lo:hi], k.b[lo:hi]
	for i := range dst {
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
	parallel.For(len(t.Data), mapGrain, ew{dst: dst.Data, a: t.Data, s: slope}, leakyReLURange)
}

func leakyReLURange(k ew, lo, hi int) {
	dst, t, slope := k.dst[lo:hi], k.a[lo:hi], k.s
	for i := range dst {
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
	parallel.For(len(x.Data), elemGrain, ew{dst: dst.Data, a: dg.Data, b: x.Data, s: slope}, leakyReLUGradRange)
}

func leakyReLUGradRange(k ew, lo, hi int) {
	dst, dg, x, slope := k.dst[lo:hi], k.a[lo:hi], k.b[lo:hi], k.s
	for i := range dst {
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
	parallel.For(len(t.Data), mapGrain, ew{dst: dst.Data, a: t.Data, s: alpha}, eluRange)
}

func eluRange(k ew, lo, hi int) {
	dst, t, alpha := k.dst[lo:hi], k.a[lo:hi], k.s
	for i := range dst {
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
	parallel.For(len(y.Data), elemGrain, ew{dst: dst.Data, a: dg.Data, b: y.Data, s: alpha}, eluGradRange)
}

func eluGradRange(k ew, lo, hi int) {
	dst, dg, y, alpha := k.dst[lo:hi], k.a[lo:hi], k.b[lo:hi], k.s
	for i := range dst {
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
	parallel.For(len(t.Data), mapGrain, ew{dst: dst.Data, a: t.Data}, squareRange)
}

func squareRange(k ew, lo, hi int) {
	dst, t := k.dst[lo:hi], k.a[lo:hi]
	for i := range dst {
		dst[i] = t[i] * t[i]
	}
}

// SquareGradInto computes dst = 2 * dg * x. dst may alias dg.
func SquareGradInto(dst, dg, x *Tensor) {
	assertSameShape("SquareGradInto", dg, x)
	assertSameShape("SquareGradInto", dst, x)
	parallel.For(len(x.Data), elemGrain, ew{dst: dst.Data, a: dg.Data, b: x.Data}, squareGradRange)
}

func squareGradRange(k ew, lo, hi int) {
	dst, dg, x := k.dst[lo:hi], k.a[lo:hi], k.b[lo:hi]
	for i := range dst {
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
	parallel.For(n, parallel.RowGrain(f), rowArgs{dst.Data, m.Data, v.Data, f}, addRowVectorRange)
}

func addRowVectorRange(k rowArgs, lo, hi int) {
	dst, m, v, f := k.dst, k.a, k.b, k.f
	for i := lo; i < hi; i++ {
		row := m[i*f : (i+1)*f]
		drow := dst[i*f : (i+1)*f]
		for j := 0; j < f; j++ {
			drow[j] = row[j] + v[j]
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
	parallel.For(n, parallel.RowGrain(f), rowArgs{dst.Data, m.Data, v.Data, f}, mulColVectorRange)
}

func mulColVectorRange(k rowArgs, lo, hi int) {
	dst, m, v, f := k.dst, k.a, k.b, k.f
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
// size N: MulInto followed by a per-row sum, fused, with the same rounding
// order per element as the unfused pair. dst must not alias a or b.
func MulSumColsInto(dst, a, b *Tensor) {
	assertSameShape("MulSumColsInto", a, b)
	n, f := a.Rows(), a.Cols()
	if dst.Size() != n {
		panic("tensor: MulSumColsInto dst length mismatch")
	}
	parallel.For(n, parallel.RowGrain(2*f), rowArgs{dst.Data, a.Data, b.Data, f}, mulSumColsRange)
}

func mulSumColsRange(k rowArgs, lo, hi int) {
	dst, a, b, f := k.dst, k.a, k.b, k.f
	for i := lo; i < hi; i++ {
		arow := a[i*f : (i+1)*f]
		brow := b[i*f : (i+1)*f]
		var s float64
		for j := 0; j < f; j++ {
			s += float64(arow[j] * brow[j])
		}
		dst[i] = s
	}
}

// CopyInto copies src into dst (same shape) as a bulk memcpy.
func CopyInto(dst, src *Tensor) { dst.CopyFrom(src) }

// FillInto sets every element of dst to v (the Into form of Full).
func FillInto(dst *Tensor, v float64) { dst.Fill(v) }
