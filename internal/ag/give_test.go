package ag

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

// TestGiveKeepsNegativeZeroOffParams: a gradient's first touch takes its
// scratch over, so a −0 in the scratch stays −0 in the node's gradient
// where adding it to a zeroed buffer gave +0. The parameter's gradient
// still reads +0 bit for bit: it arrives by AddInPlace into a cleared
// p.Grad. Here Scale(·, −1) negates ReLU's masked +0s into −0s.
func TestGiveKeepsNegativeZeroOffParams(t *testing.T) {
	p := NewParameter("p", tensor.FromSlice([]float64{1, -1, 2, -2}, 4))
	g := New(nil)
	pn := g.Param(p)
	loss := g.MeanAll(g.ReLU(g.Scale(pn, -1)))
	g.Backward(loss)
	for i, v := range pn.grad.Data {
		masked := p.Value.Data[i] > 0 // -p <= 0: ReLU passes no gradient
		if masked != (v == 0 && math.Signbit(v)) {
			t.Fatalf("node gradient[%d] = %v (sign bit %v), want −0 exactly where ReLU masked", i, v, math.Signbit(v))
		}
	}
	g.Finish()
	for i, v := range p.Grad.Data {
		want := 0.0
		if p.Value.Data[i] < 0 {
			want = -0.25
		}
		if math.Float64bits(v) != math.Float64bits(want) {
			t.Errorf("p.Grad[%d] = %v (bits %#x), want %v", i, v, math.Float64bits(v), want)
		}
	}
}

// TestGiveReleasesUnneededScratch: scratch given to a node that needs no
// gradient goes straight back to the pool; scratch given to a node that
// does becomes its gradient on first touch and is added in and released
// after that.
func TestGiveReleasesUnneededScratch(t *testing.T) {
	g := New(nil)
	defer g.Finish()
	x := g.Input(tensor.New(3, 4))
	before := tensor.Pool().Releases
	g.give(x, g.tempLike(x.T))
	if r := tensor.Pool().Releases - before; r != 1 || x.grad != nil {
		t.Fatalf("give to an input: %d releases and gradient %v, want 1 and none", r, x.grad)
	}

	w := g.Param(NewParameter("w", tensor.New(3, 4)))
	s := g.tempLike(w.T)
	tensor.FillInto(s, 1)
	before = tensor.Pool().Releases
	g.give(w, s)
	if r := tensor.Pool().Releases - before; r != 0 || w.grad != s {
		t.Fatalf("first give to a parameter: %d releases, gradient taken over %v; want 0 and true", r, w.grad == s)
	}
	s2 := g.tempLike(w.T)
	tensor.FillInto(s2, 2)
	g.give(w, s2)
	if r := tensor.Pool().Releases - before; r != 1 || w.grad.Data[0] != 3 {
		t.Fatalf("second give: %d releases, gradient %v; want 1 and 3", r, w.grad.Data[0])
	}
}
