package tensor

import (
	"math"
	"strings"
	"testing"
)

// forEachStripPath runs f as one subtest per strip path this CPU has: the
// AVX2 strips when present, then the pure-Go strips, which every CPU runs.
func forEachStripPath(t *testing.T, f func(t *testing.T)) {
	defer func(v bool) { haveAVX2 = v }(haveAVX2)
	paths := []bool{false}
	if haveAVX2 {
		paths = []bool{true, false}
	}
	for _, on := range paths {
		haveAVX2 = on
		name := "generic"
		if on {
			name = "avx2"
		}
		t.Run(name, f)
	}
}

// TestReLUMatchesMathMax: ReLUInto is math.Max(0, v) bit for bit over
// signed zeros, infinities, subnormals, the extremes, and NaNs of either
// sign with quiet and signalling payloads.
func TestReLUMatchesMathMax(t *testing.T) {
	vals := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, -2.5,
		math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000FFFFFFFFFFFFF), math.Float64frombits(0x800FFFFFFFFFFFFF),
		math.MaxFloat64, -math.MaxFloat64,
		math.NaN(),
		math.Float64frombits(0x7FF8000000000000), math.Float64frombits(0xFFF8000000000000),
		math.Float64frombits(0x7FF0000000000001), math.Float64frombits(0xFFF0000000000001),
		math.Float64frombits(0x7FFFFFFFFFFFFFFF), math.Float64frombits(0xFFFFFFFFFFFFFFFF),
		math.Float64frombits(0x7FF4DEADBEEF0000), math.Float64frombits(0xFFF80000000000AB),
	}
	src := FromSlice(vals, len(vals))
	dst := Full(7, len(vals))
	ReLUInto(dst, src)
	for i, v := range vals {
		if got, want := math.Float64bits(dst.Data[i]), math.Float64bits(math.Max(0, v)); got != want {
			t.Errorf("ReLU(%#016x) = %#016x, math.Max(0, v) = %#016x", math.Float64bits(v), got, want)
		}
	}
}

// TestAggregateRowsIntoRangeChecks: an out-of-range source, edge id or row
// pointer panics, on either strip path, before any destination row is
// written.
func TestAggregateRowsIntoRangeChecks(t *testing.T) {
	forEachStripPath(t, func(t *testing.T) {
		x := NewRNG(9).Randn(1, 5, 37)
		w := []float64{1, 2, 3, 4}
		for _, c := range []struct {
			name     string
			w        []float64
			rowptr   []int
			col, eid []int
			want     string
			xCols    int
		}{
			{"source past the end", nil, []int{0, 2, 4}, []int{0, 1, 2, 5}, nil, "source 5", 37},
			{"negative source", w, []int{0, 2, 4}, []int{0, -1, 2, 3}, []int{0, 1, 2, 3}, "source -1", 37},
			{"edge id past the weights", w, []int{0, 2, 4}, []int{0, 1, 2, 3}, []int{0, 1, 2, 4}, "edge id 4", 37},
			{"negative edge id", w, []int{0, 2, 4}, []int{0, 1, 2, 3}, []int{0, -3, 2, 1}, "edge id -3", 37},
			{"row pointers decrease", nil, []int{0, 3, 2}, []int{0, 1, 2, 3}, nil, "decrease", 37},
			{"arcs past the list", w, []int{0, 2, 5}, []int{0, 1, 2, 3, 4}, []int{0, 1, 2, 3}, "out of range", 37},
			{"row pointers for other rows", nil, []int{0, 2}, []int{0, 1}, nil, "row pointers", 37},
			{"x narrower than dst", nil, []int{0, 2, 4}, []int{0, 1, 2, 3}, nil, "37-wide", 36},
		} {
			dst := Full(-7, 2, 37)
			xx := x
			if c.xCols != 37 {
				xx = New(5, c.xCols)
			}
			func() {
				defer func() {
					r := recover()
					if msg, _ := r.(string); !strings.Contains(msg, c.want) {
						t.Errorf("%s: panic %v, want one naming %q", c.name, r, c.want)
					}
				}()
				AggregateRowsInto(dst, xx, c.w, c.rowptr, c.col, c.eid)
			}()
			for _, v := range dst.Data {
				if v != -7 {
					t.Errorf("%s: a destination row was written before the panic", c.name)
					break
				}
			}
		}
	})
}
