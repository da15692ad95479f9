package tensor

import (
	"math"
	"strings"
	"testing"

	"repro/internal/parallel"
)

// gssCase is one GatherScaleScatterInto input: x rows gathered by s, scaled by
// w (nil for none), summed into n destination rows named by d.
type gssCase struct {
	name string
	x, w *Tensor
	s, d []int
	n    int
}

func gssCases() []gssCase {
	rng := NewRNG(11)
	idx := func(e, n int) []int {
		out := make([]int, e)
		for k := range out {
			out[k] = rng.IntN(n)
		}
		return out
	}
	// Special values must travel through both paths with the same bits.
	special := rng.Randn(1, 6, 5)
	copy(special.Data, []float64{math.Inf(1), math.Copysign(0, -1), math.NaN(), -3.5, 1e-310})
	specialW := FromSlice([]float64{0, math.Copysign(0, -1), -1, 2.5, math.Inf(-1), 1e300, 3, -7}, 8, 1)

	big := 4001 // arcs onto 51 destinations: enough work for the pool to split
	return []gssCase{
		{"sum", rng.Randn(1, 7, 4), nil, idx(19, 7), idx(19, 5), 5},
		{"weighted", rng.Randn(1, 7, 4), rng.Randn(1, 19), idx(19, 7), idx(19, 5), 5},
		{"weighted [E,1]", rng.Randn(1, 9, 3), rng.Randn(1, 23, 1), idx(23, 9), idx(23, 9), 9},
		{"no arcs", rng.Randn(1, 3, 4), New(0), nil, nil, 6},
		{"unnamed destinations", rng.Randn(1, 12, 6), nil, idx(30, 12), idx(30, 4), 40},
		{"special values", special, specialW, idx(8, 6), idx(8, 3), 3},
		{"parallel sum", rng.Randn(1, 97, 33), nil, idx(big, 97), idx(big, 51), 51},
		{"parallel weighted", rng.Randn(1, 97, 33), rng.Randn(1, big), idx(big, 97), idx(big, 51), 51},
	}
}

// gssChain is the unfused reference: GatherRowsInto, MulColVectorInto when
// weighted, ScatterAddRowsInto.
func gssChain(c gssCase) *Tensor {
	msg := New(len(c.s), c.x.Cols())
	GatherRowsInto(msg, c.x, c.s)
	if c.w != nil {
		scaled := NewLike(msg)
		MulColVectorInto(scaled, msg, c.w)
		msg = scaled
	}
	out := New(c.n, c.x.Cols())
	ScatterAddRowsInto(out, msg, c.d)
	return out
}

// TestGatherScaleScatterIntoMatchesChain holds the fused message-passing
// kernel to the three-kernel chain it replaces on inference tapes, bit for
// bit, at 1, 2 and 7 workers, writing into a NaN-filled destination (the
// kernel must overwrite every row, including rows no arc names).
func TestGatherScaleScatterIntoMatchesChain(t *testing.T) {
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	for _, c := range gssCases() {
		parallel.SetWorkers(1)
		want := gssChain(c)
		arcs := newByDst(c.n, c.s, c.d)
		for _, w := range []int{1, 2, 7} {
			parallel.SetWorkers(w)
			got := New(c.n, c.x.Cols())
			got.Fill(math.NaN())
			GatherScaleScatterInto(got, c.x, c.w, c.s, c.d, arcs, Epilogue{})
			if !bitIdentical(got, want) {
				t.Errorf("%s at %d workers: fused %v, chain %v", c.name, w, got.Data, want.Data)
			}
		}
	}
}

// unconsulted fails a GatherScaleScatterInto whose range checks let a bad
// arc reach the CSR.
type unconsulted struct{}

func (unconsulted) ByDst() (rowptr, col, eid []int) { panic("arcs consulted before the range checks") }

// TestGatherScaleScatterIntoPanics: an out-of-range source or destination
// panics with the message GatherRows or ScatterAddRows gives, before the CSR
// is asked for or any destination row is written; mismatched lengths panic
// too.
func TestGatherScaleScatterIntoPanics(t *testing.T) {
	x := Ones(4, 2)
	for _, c := range []struct {
		name string
		w    *Tensor
		s, d []int
		want string
	}{
		{"source past the end", nil, []int{0, 4}, []int{0, 1}, "GatherRows index 4 out of range [0,4)"},
		{"negative source", nil, []int{-1, 0}, []int{0, 1}, "GatherRows index -1 out of range [0,4)"},
		{"destination past the end", nil, []int{0, 1}, []int{0, 3}, "ScatterAddRows index 3 out of range [0,3)"},
		{"negative destination", nil, []int{0, 1}, []int{-2, 0}, "ScatterAddRows index -2 out of range [0,3)"},
		{"arc count", nil, []int{0, 1}, []int{0}, "ScatterAddRows src has 2 rows for 1 indices"},
		{"weight count", Ones(3), []int{0, 1}, []int{0, 1}, "3 weights for 2 arcs"},
	} {
		dst := Full(7, 3, 2)
		msg := func() (msg string) {
			defer func() {
				if r := recover(); r != nil {
					msg, _ = r.(string)
				}
			}()
			GatherScaleScatterInto(dst, x, c.w, c.s, c.d, unconsulted{}, Epilogue{})
			return ""
		}()
		if !strings.Contains(msg, c.want) {
			t.Errorf("%s: panic %q, want it to contain %q", c.name, msg, c.want)
		}
		for _, v := range dst.Data {
			if v != 7 {
				t.Errorf("%s: destination written before the panic: %v", c.name, dst.Data)
				break
			}
		}
	}
}

// TestGatherScaleScatterIntoInlineZeroAllocs: on the inline path — one
// worker, or work below one grain at seven — the CSR the kernel reads is the
// caller's, so it allocates nothing.
func TestGatherScaleScatterIntoInlineZeroAllocs(t *testing.T) {
	if RaceEnabled {
		t.Skip("race instrumentation allocates")
	}
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	for i, c := range gssCases() {
		dst := New(c.n, c.x.Cols())
		arcs := newByDst(c.n, c.s, c.d)
		workers := []int{1}
		if i < 2 { // "sum" and "weighted": under one grain
			workers = append(workers, 7)
		}
		for _, w := range workers {
			parallel.SetWorkers(w)
			if a := testing.AllocsPerRun(20, func() { GatherScaleScatterInto(dst, c.x, c.w, c.s, c.d, &arcs, Epilogue{}) }); a != 0 {
				t.Errorf("%s at %d workers: %v allocs per call on the inline path, want 0", c.name, w, a)
			}
		}
	}
}
