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

// Dot returns the inner product of two same-shaped tensors. The accumulation
// is an ordered reduction, so it stays serial (parallel partial sums would
// change the floating-point result).
func Dot(a, b *Tensor) float64 {
	assertSameShape("Dot", a, b)
	var s float64
	for i := range a.Data {
		s += float64(a.Data[i] * b.Data[i])
	}
	return s
}

// AllClose reports whether a and b match elementwise within atol + rtol*|b|.
//
//gnnvet:allow unreachable -- TestGSpMMSumMatchesGatherScatter
func AllClose(a, b *Tensor, rtol, atol float64) bool {
	if !SameShape(a, b) {
		return false
	}
	for i := range a.Data {
		d := math.Abs(a.Data[i] - b.Data[i])
		if d > atol+float64(rtol*math.Abs(b.Data[i])) {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns the largest elementwise absolute difference.
//
//gnnvet:allow unreachable -- TestCrossBackendForwardEquivalence
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
