package nn

import (
	"math"
	"testing"

	"repro/internal/ag"
	"repro/internal/tensor"
)

func TestLinearShapesAndParams(t *testing.T) {
	rng := tensor.NewRNG(1)
	l := NewLinear(rng, "fc", 4, 3, true)
	if w := l.W.Value; w.Rows() != 4 || w.Cols() != 3 {
		t.Fatalf("W shape %v", w.Shape())
	}
	if len(l.Params()) != 2 {
		t.Fatal("biased linear has 2 params")
	}
	nb := NewLinear(rng, "fc2", 4, 3, false)
	if len(nb.Params()) != 1 {
		t.Fatal("bias-free linear has 1 param")
	}
	g := ag.New(nil)
	y := l.Apply(g, g.Input(tensor.Ones(5, 4)))
	if y.Value().Rows() != 5 || y.Value().Cols() != 3 {
		t.Fatalf("Linear output shape %v", y.Value().Shape())
	}
}

func TestLinearGradient(t *testing.T) {
	rng := tensor.NewRNG(2)
	l := NewLinear(rng, "fc", 3, 2, true)
	x := rng.Randn(1, 4, 3)
	labels := []int{0, 1, 0, 1}
	err := ag.GradCheck(l.Params(), func(g *ag.Graph) *ag.Node {
		return g.CrossEntropy(l.Apply(g, g.Input(x)), labels, nil)
	}, 1e-6, 1e-5, 1e-7)
	if err != nil {
		t.Fatal(err)
	}
}

func TestGlorotHeBounds(t *testing.T) {
	rng := tensor.NewRNG(3)
	w := GlorotUniform(rng, 100, 50)
	limit := math.Sqrt(6.0 / 150.0)
	for _, v := range w.Data {
		if v < -limit || v > limit {
			t.Fatalf("Glorot value %v outside ±%v", v, limit)
		}
	}
}

func TestBatchNormTrainingNormalizes(t *testing.T) {
	bn := NewBatchNorm1d("bn", 3)
	rng := tensor.NewRNG(4)
	x := rng.Randn(2, 200, 3)
	tensor.AddScalarInto(x, x, 5) // mean 5, std 2
	g := ag.New(nil)
	y := bn.Apply(g, g.Input(x), true)
	mean, std := tensor.New(3), tensor.New(3)
	tensor.MeanStdInto(mean, std, y.Value())
	for j := 0; j < 3; j++ {
		if math.Abs(mean.Data[j]) > 0.05 {
			t.Fatalf("normalized mean %v not ~0", mean.Data[j])
		}
		if math.Abs(std.Data[j]-1) > 0.05 {
			t.Fatalf("normalized std %v not ~1", std.Data[j])
		}
	}
	// Running stats must have moved toward the batch stats.
	if bn.RunMean.Data[0] == 0 || bn.RunVar.Data[0] == 1 {
		t.Fatal("running stats must update in training mode")
	}
}

func TestBatchNormEvalUsesRunningStats(t *testing.T) {
	bn := NewBatchNorm1d("bn", 2)
	bn.RunMean = tensor.FromSlice([]float64{1, 2}, 2)
	bn.RunVar = tensor.FromSlice([]float64{4, 9}, 2)
	x := tensor.FromSlice([]float64{3, 5, 1, 2}, 2, 2)
	g := ag.New(nil)
	y := bn.Apply(g, g.Input(x), false)
	// (3-1)/2 = 1, (5-2)/3 = 1, (1-1)/2 = 0, (2-2)/3 = 0 (gamma=1, beta=0)
	want := []float64{1, 1, 0, 0}
	for i, w := range want {
		if math.Abs(y.Value().Data[i]-w) > 1e-3 {
			t.Fatalf("eval BN[%d] = %v, want %v", i, y.Value().Data[i], w)
		}
	}
	// Eval mode must not touch running stats.
	if bn.RunMean.Data[0] != 1 {
		t.Fatal("eval mode must not update running stats")
	}
}

func TestBatchNormShapeValidation(t *testing.T) {
	bn := NewBatchNorm1d("bn", 3)
	g := ag.New(nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on feature mismatch")
		}
	}()
	bn.Apply(g, g.Input(tensor.Ones(2, 4)), true)
}

func TestDropoutDeterministicStream(t *testing.T) {
	d1 := NewDropout(0.5, 9)
	d2 := NewDropout(0.5, 9)
	x := tensor.Ones(50, 4)
	g := ag.New(nil)
	y1 := d1.Apply(g, g.Input(x), true)
	y2 := d2.Apply(g, g.Input(x), true)
	if !tensor.AllClose(y1.Value(), y2.Value(), 0, 0) {
		t.Fatal("same-seed dropout streams must match")
	}
}

func TestMLPStructure(t *testing.T) {
	rng := tensor.NewRNG(5)
	m := NewMLP(rng, "mlp", 8, 16, 4)
	if len(m.Layers) != 2 {
		t.Fatalf("MLP layer count %d", len(m.Layers))
	}
	if got := len(m.Params()); got != 4 {
		t.Fatalf("MLP param count %d, want 4", got)
	}
	g := ag.New(nil)
	y := m.Apply(g, g.Input(tensor.Ones(3, 8)))
	if y.Value().Cols() != 4 {
		t.Fatalf("MLP output width %d", y.Value().Cols())
	}
}

func TestMLPGradient(t *testing.T) {
	rng := tensor.NewRNG(6)
	m := NewMLP(rng, "mlp", 3, 5, 2)
	x := rng.Randn(1, 4, 3)
	labels := []int{1, 0, 1, 0}
	err := ag.GradCheck(m.Params(), func(g *ag.Graph) *ag.Node {
		return g.CrossEntropy(m.Apply(g, g.Input(x)), labels, nil)
	}, 1e-6, 1e-4, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
}

func TestParamsHelpers(t *testing.T) {
	rng := tensor.NewRNG(7)
	l1 := NewLinear(rng, "a", 2, 3, true) // 2*3 + 3 = 9 elements
	l2 := NewLinear(rng, "b", 3, 1, false)
	ps := append(l1.Params(), l2.Params()...)
	if NumParams(ps) != 9+3 {
		t.Fatalf("NumParams = %d", NumParams(ps))
	}
	if ParamBytes(ps) != int64(12*8) {
		t.Fatalf("ParamBytes = %d", ParamBytes(ps))
	}
}

func TestMLPValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for single-dim MLP")
		}
	}()
	NewMLP(tensor.NewRNG(8), "bad", 4)
}

func TestBatchNormAndDropoutParams(t *testing.T) {
	bn := NewBatchNorm1d("bn", 4)
	if got := len(bn.Params()); got != 2 {
		t.Fatalf("BatchNorm params %d, want gamma+beta", got)
	}
	d := NewDropout(0.3, 1)
	if d.Params() != nil {
		t.Fatal("dropout has no params")
	}
}
