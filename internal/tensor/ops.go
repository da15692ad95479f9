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

// AddInPlace accumulates b into a.
func AddInPlace(a, b *Tensor) {
	assertSameShape("AddInPlace", a, b)
	parallel.For(len(a.Data), elemGrain, ew{dst: a.Data, a: b.Data}, addInPlaceRange)
}

func addInPlaceRange(k ew, lo, hi int) {
	a, b := k.dst[lo:hi], k.a[lo:hi]
	for i := range a {
		a[i] += b[i]
	}
}

// ScaleInPlace multiplies t by s.
func ScaleInPlace(t *Tensor, s float64) {
	parallel.For(len(t.Data), elemGrain, ew{dst: t.Data, s: s}, scaleInPlaceRange)
}

func scaleInPlaceRange(k ew, lo, hi int) {
	t, s := k.dst[lo:hi], k.s
	for i := range t {
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
