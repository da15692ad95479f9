package tensor

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/parallel"
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
// pointer, or an epilogue of the wrong length, panics, on either strip path,
// before any destination row is written.
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
			ep       Epilogue
		}{
			{"source past the end", nil, []int{0, 2, 4}, []int{0, 1, 2, 5}, nil, "source 5", 37, Epilogue{}},
			{"negative source", w, []int{0, 2, 4}, []int{0, -1, 2, 3}, []int{0, 1, 2, 3}, "source -1", 37, Epilogue{}},
			{"edge id past the weights", w, []int{0, 2, 4}, []int{0, 1, 2, 3}, []int{0, 1, 2, 4}, "edge id 4", 37, Epilogue{}},
			{"negative edge id", w, []int{0, 2, 4}, []int{0, 1, 2, 3}, []int{0, -3, 2, 1}, "edge id -3", 37, Epilogue{}},
			{"row pointers decrease", nil, []int{0, 3, 2}, []int{0, 1, 2, 3}, nil, "decrease", 37, Epilogue{}},
			{"arcs past the list", w, []int{0, 2, 5}, []int{0, 1, 2, 3, 4}, []int{0, 1, 2, 3}, "out of range", 37, Epilogue{}},
			{"row pointers for other rows", nil, []int{0, 2}, []int{0, 1}, nil, "row pointers", 37, Epilogue{}},
			{"x narrower than dst", nil, []int{0, 2, 4}, []int{0, 1, 2, 3}, nil, "37-wide", 36, Epilogue{}},
			{"bias narrower than dst", nil, []int{0, 2, 4}, []int{0, 1, 2, 3}, nil, "36 biases", 37, Epilogue{Bias: make([]float64, 36)}},
			{"scale for other rows", w, []int{0, 2, 4}, []int{0, 1, 2, 3}, []int{0, 1, 2, 3}, "3 scales", 37, Epilogue{Scale: make([]float64, 3)}},
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
				AggregateRowsInto(dst, xx, c.w, c.rowptr, c.col, c.eid, c.ep)
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

// specials are the values the epilogue and term-list tests mix into their
// operands: signed zeros, infinities, subnormals, and NaNs of either sign
// with quiet and signalling payloads.
var specials = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000FFFFFFFFFFFFF), math.Float64frombits(0x800FFFFFFFFFFFFF),
	math.NaN(),
	math.Float64frombits(0x7FF8000000000000), math.Float64frombits(0xFFF8000000000000),
	math.Float64frombits(0x7FF0000000000001), math.Float64frombits(0xFFF0000000000001),
	math.Float64frombits(0x7FF4DEADBEEF0000), math.Float64frombits(0xFFF80000000000AB),
}

// sprinkle overwrites about one entry of d in every `every` with a special.
func sprinkle(rng *RNG, d []float64, every int) {
	for i := range d {
		if rng.IntN(every) == 0 {
			d[i] = specials[rng.IntN(len(specials))]
		}
	}
}

// TestAggregateEpilogueMatchesChain holds AggregateRowsInto with each
// epilogue to the aggregation without one followed by the separate
// MulColVectorInto, AddRowVectorInto and ReLUInto passes, bit for bit, for
// plain and weighted sums of widths 1 to 40 at 1, 2 and 7 workers, on both
// strip paths. Operands carry signed zeros, infinities, subnormals and NaNs
// with payloads (the scales too, so a NaN row times a NaN scale shows which
// payload survives), and rows 90.. have no arcs.
func TestAggregateEpilogueMatchesChain(t *testing.T) {
	forEachStripPath(t, testAggregateEpilogueMatchesChain)
}

func testAggregateEpilogueMatchesChain(t *testing.T) {
	defer parallel.SetWorkers(parallel.SetWorkers(1))
	const rows, srcRows, arcs = 97, 61, 3000
	rng := NewRNG(38)
	s, d := make([]int, arcs), make([]int, arcs)
	for k := range s {
		s[k], d[k] = rng.IntN(srcRows), rng.IntN(90)
	}
	c := newByDst(rows, s, d)
	w := rng.Randn(1, arcs)
	sprinkle(rng, w.Data, 64)
	scale := rng.Randn(1, rows)
	sprinkle(rng, scale.Data, 8)
	for f := 1; f <= 40; f++ {
		x := rng.Randn(1, srcRows, f)
		sprinkle(rng, x.Data, 128)
		bias := rng.Randn(1, f)
		sprinkle(rng, bias.Data, 4)
		for _, wd := range [][]float64{nil, w.Data} {
			for m := 0; m < 8; m++ {
				ep := Epilogue{ReLU: m&epiReLU != 0}
				if m&epiScale != 0 {
					ep.Scale = scale.Data
				}
				if m&epiBias != 0 {
					ep.Bias = bias.Data
				}
				parallel.SetWorkers(1)
				want := Full(math.NaN(), rows, f)
				AggregateRowsInto(want, x, wd, c.rowptr, c.col, c.eid, Epilogue{})
				if ep.Scale != nil {
					MulColVectorInto(want, want, scale)
				}
				if ep.Bias != nil {
					AddRowVectorInto(want, want, bias)
				}
				if ep.ReLU {
					ReLUInto(want, want)
				}
				for _, workers := range []int{1, 2, 7} {
					parallel.SetWorkers(workers)
					got := Full(math.NaN(), rows, f)
					AggregateRowsInto(got, x, wd, c.rowptr, c.col, c.eid, ep)
					if !bitIdentical(got, want) {
						name := fmt.Sprintf("width %d weighted=%v scale=%v bias=%v relu=%v at %d workers",
							f, wd != nil, ep.Scale != nil, ep.Bias != nil, ep.ReLU, workers)
						for i := range got.Data {
							if g, w := math.Float64bits(got.Data[i]), math.Float64bits(want.Data[i]); g != w {
								t.Fatalf("%s: element [%d,%d] is %#016x, the chain's %#016x", name, i/f, i%f, g, w)
							}
						}
					}
				}
			}
		}
	}
}

// TestTermListMatchesScalar: on AVX2 CPUs, the product's term list from
// nonzero masks is the scalar loop's list, the same offsets and coefficient
// bits in the same order, for every length up to mmBlockK (two masks at
// 65 and over, and lengths that leave one to three coefficients past the
// last whole quad), with ±0 left out and NaNs and subnormals kept.
func TestTermListMatchesScalar(t *testing.T) {
	if !haveAVX2 {
		t.Skip("no AVX2: the scalar list is the only one")
	}
	defer func(v bool) { haveAVX2 = v }(haveAVX2)
	rng := NewRNG(39)
	var masked, scalar mmTerms
	for n := 1; n <= mmBlockK; n++ {
		for trial := 0; trial < 4; trial++ {
			arow := rng.Randn(1, n).Data
			sprinkle(rng, arow, 1+trial) // from all specials to one in four
			haveAVX2 = true
			off, coef := masked.list(arow, 3, true)
			haveAVX2 = false
			wantOff, wantCoef := scalar.list(arow, 3, true)
			if len(off) != len(wantOff) {
				t.Fatalf("length %d trial %d: %d terms, the scalar list %d", n, trial, len(off), len(wantOff))
			}
			for i := range off {
				if off[i] != wantOff[i] || math.Float64bits(coef[i]) != math.Float64bits(wantCoef[i]) {
					t.Fatalf("length %d trial %d: term %d is (%d, %#016x), the scalar list's (%d, %#016x)",
						n, trial, i, off[i], math.Float64bits(coef[i]), wantOff[i], math.Float64bits(wantCoef[i]))
				}
			}
		}
	}
}
