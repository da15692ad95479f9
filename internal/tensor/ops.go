package tensor

import (
	"math"

	"repro/internal/parallel"
)

// Elementwise kernels partition the flat data slice across the worker pool;
// every element belongs to exactly one chunk, so parallel results are
// bit-identical to serial. elemGrain is the serial threshold for one-flop
// elements; mapGrain is the lower one of the unary kernels, most of which pay
// a math call per element.
const (
	elemGrain = parallel.MinWork
	mapGrain  = parallel.MinWork / 8
)

// The allocating forms below are New + the Into kernel of the same name
// (into.go): one loop body per op, and one shape check with one message.

// Add returns a + b elementwise.
func Add(a, b *Tensor) *Tensor {
	out := New(a.shape...)
	AddInto(out, a, b)
	return out
}

// AddInPlace accumulates b into a. Gradient accumulation calls this every
// backward step, so the serial path avoids constructing the For closure (see
// into.go for the pattern).
func AddInPlace(a, b *Tensor) {
	assertSameShape("AddInPlace", a, b)
	if parallel.Inline(len(a.Data), elemGrain) {
		addInPlaceRange(a.Data, b.Data, 0, len(a.Data))
		return
	}
	parallel.For(len(a.Data), elemGrain, func(lo, hi int) { addInPlaceRange(a.Data, b.Data, lo, hi) })
}

func addInPlaceRange(a, b []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		a[i] += b[i]
	}
}

// Sub returns a - b elementwise.
func Sub(a, b *Tensor) *Tensor {
	out := New(a.shape...)
	SubInto(out, a, b)
	return out
}

// Mul returns a * b elementwise (Hadamard product).
func Mul(a, b *Tensor) *Tensor {
	out := New(a.shape...)
	MulInto(out, a, b)
	return out
}

// Div returns a / b elementwise.
func Div(a, b *Tensor) *Tensor {
	out := New(a.shape...)
	DivInto(out, a, b)
	return out
}

// Scale returns s * t.
func Scale(t *Tensor, s float64) *Tensor {
	out := New(t.shape...)
	ScaleInto(out, t, s)
	return out
}

// ScaleInPlace multiplies t by s.
func ScaleInPlace(t *Tensor, s float64) {
	if parallel.Inline(len(t.Data), elemGrain) {
		scaleInPlaceRange(t.Data, s, 0, len(t.Data))
		return
	}
	parallel.For(len(t.Data), elemGrain, func(lo, hi int) { scaleInPlaceRange(t.Data, s, lo, hi) })
}

func scaleInPlaceRange(t []float64, s float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		t[i] *= s
	}
}

// AddScaled accumulates s*b into a (a += s*b).
func AddScaled(a *Tensor, s float64, b *Tensor) {
	assertSameShape("AddScaled", a, b)
	if parallel.Inline(len(a.Data), elemGrain) {
		addScaledRange(a.Data, b.Data, s, 0, len(a.Data))
		return
	}
	parallel.For(len(a.Data), elemGrain, func(lo, hi int) { addScaledRange(a.Data, b.Data, s, lo, hi) })
}

func addScaledRange(a, b []float64, s float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		a[i] += s * b[i]
	}
}

// AddScalar returns t + s elementwise.
func AddScalar(t *Tensor, s float64) *Tensor {
	out := New(t.shape...)
	AddScalarInto(out, t, s)
	return out
}

// Neg returns -t.
func Neg(t *Tensor) *Tensor { return Scale(t, -1) }

// Exp returns e^t elementwise.
func Exp(t *Tensor) *Tensor {
	out := New(t.shape...)
	ExpInto(out, t)
	return out
}

// Square returns t*t elementwise.
func Square(t *Tensor) *Tensor {
	out := New(t.shape...)
	SquareInto(out, t)
	return out
}

// Tanh returns tanh(t) elementwise.
func Tanh(t *Tensor) *Tensor {
	out := New(t.shape...)
	TanhInto(out, t)
	return out
}

// Sigmoid returns the logistic function of t elementwise.
func Sigmoid(t *Tensor) *Tensor {
	out := New(t.shape...)
	SigmoidInto(out, t)
	return out
}

// ReLU returns max(0, t) elementwise.
func ReLU(t *Tensor) *Tensor {
	out := New(t.shape...)
	ReLUInto(out, t)
	return out
}

// LeakyReLU returns t where t>0 and slope*t elsewhere.
func LeakyReLU(t *Tensor, slope float64) *Tensor {
	out := New(t.shape...)
	LeakyReLUInto(out, t, slope)
	return out
}

// ELU returns t where t>0 and alpha*(e^t-1) elsewhere.
func ELU(t *Tensor, alpha float64) *Tensor {
	out := New(t.shape...)
	ELUInto(out, t, alpha)
	return out
}

// AddRowVector returns m with v added to every row. m is [N,F], v is [F] (or [1,F]).
func AddRowVector(m, v *Tensor) *Tensor {
	out := New(m.shape...)
	AddRowVectorInto(out, m, v)
	return out
}

// MulRowVector returns m with every row multiplied elementwise by v.
func MulRowVector(m, v *Tensor) *Tensor {
	out := New(m.shape...)
	MulRowVectorInto(out, m, v)
	return out
}

// MulColVector returns m ([N,F]) with row i scaled by v[i] (v is [N]).
func MulColVector(m, v *Tensor) *Tensor {
	out := New(m.shape...)
	MulColVectorInto(out, m, v)
	return out
}

// Dot returns the inner product of two same-shaped tensors. The accumulation
// is an ordered reduction, so it stays serial (parallel partial sums would
// change the floating-point result).
func Dot(a, b *Tensor) float64 {
	assertSameShape("Dot", a, b)
	var s float64
	for i := range a.Data {
		s += a.Data[i] * b.Data[i]
	}
	return s
}

// AllClose reports whether a and b match elementwise within atol + rtol*|b|.
func AllClose(a, b *Tensor, rtol, atol float64) bool {
	if !SameShape(a, b) {
		return false
	}
	for i := range a.Data {
		d := math.Abs(a.Data[i] - b.Data[i])
		if d > atol+rtol*math.Abs(b.Data[i]) {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns the largest elementwise absolute difference.
func MaxAbsDiff(a, b *Tensor) float64 {
	assertSameShape("MaxAbsDiff", a, b)
	var m float64
	for i := range a.Data {
		if d := math.Abs(a.Data[i] - b.Data[i]); d > m {
			m = d
		}
	}
	return m
}
