package tensor

import (
	"math"
	"testing"
)

func TestNewAndShape(t *testing.T) {
	x := New(3, 4)
	if x.Rank() != 2 || x.Dim(0) != 3 || x.Dim(1) != 4 || x.Size() != 12 {
		t.Fatalf("bad shape: rank=%d dims=%v size=%d", x.Rank(), x.Shape(), x.Size())
	}
	for _, v := range x.Data {
		if v != 0 {
			t.Fatal("New must zero-fill")
		}
	}
}

func TestFromSliceValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for size mismatch")
		}
	}()
	FromSlice([]float64{1, 2, 3}, 2, 2)
}

func TestAtSetRow(t *testing.T) {
	x := New(2, 3)
	x.Set(1, 2, 7)
	if x.At(1, 2) != 7 {
		t.Fatal("Set/At roundtrip failed")
	}
	row := x.Row(1)
	if row[2] != 7 {
		t.Fatal("Row must view the same storage")
	}
	row[0] = 5
	if x.At(1, 0) != 5 {
		t.Fatal("Row must be a view, not a copy")
	}
}

func TestCloneIndependence(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	y := x.Clone()
	y.Set(0, 0, 99)
	if x.At(0, 0) != 1 {
		t.Fatal("Clone must not share storage")
	}
}

func TestReshapeSharesStorage(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	y := x.Reshape(3, 2)
	y.Set(0, 1, 42)
	if x.At(0, 1) != 42 {
		t.Fatal("Reshape must share storage")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for bad reshape")
		}
	}()
	x.Reshape(4, 2)
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float64{4, 3, 2, 1}, 2, 2)
	if got := Add(a, b); got.At(0, 0) != 5 || got.At(1, 1) != 5 {
		t.Fatalf("Add wrong: %v", got)
	}
	if got := Sub(a, b); got.At(0, 0) != -3 {
		t.Fatalf("Sub wrong: %v", got)
	}
	if got := Mul(a, b); got.At(0, 1) != 6 {
		t.Fatalf("Mul wrong: %v", got)
	}
	if got := Div(a, b); got.At(1, 0) != 1.5 {
		t.Fatalf("Div wrong: %v", got)
	}
	if got := Scale(a, 2); got.At(1, 1) != 8 {
		t.Fatalf("Scale wrong: %v", got)
	}
	if got := AddScalar(a, 10); got.At(0, 0) != 11 {
		t.Fatalf("AddScalar wrong: %v", got)
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape mismatch")
		}
	}()
	Add(New(2, 2), New(2, 3))
}

func TestActivations(t *testing.T) {
	x := FromSlice([]float64{-2, 0, 2}, 3)
	r := ReLU(x)
	if r.Data[0] != 0 || r.Data[2] != 2 {
		t.Fatalf("ReLU wrong: %v", r.Data)
	}
	l := LeakyReLU(x, 0.1)
	if math.Abs(l.Data[0]-(-0.2)) > 1e-12 {
		t.Fatalf("LeakyReLU wrong: %v", l.Data)
	}
	s := Sigmoid(x)
	if math.Abs(s.Data[1]-0.5) > 1e-12 {
		t.Fatalf("Sigmoid(0) should be 0.5: %v", s.Data)
	}
	e := ELU(x, 1.0)
	if math.Abs(e.Data[0]-(math.Exp(-2)-1)) > 1e-12 {
		t.Fatalf("ELU wrong: %v", e.Data)
	}
}

func TestBroadcastRowColVector(t *testing.T) {
	m := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	v := FromSlice([]float64{10, 20, 30}, 3)
	got := AddRowVector(m, v)
	if got.At(0, 0) != 11 || got.At(1, 2) != 36 {
		t.Fatalf("AddRowVector wrong: %v", got)
	}
	got = MulRowVector(m, v)
	if got.At(1, 1) != 100 {
		t.Fatalf("MulRowVector wrong: %v", got)
	}
	c := FromSlice([]float64{2, 3}, 2)
	got = MulColVector(m, c)
	if got.At(0, 2) != 6 || got.At(1, 0) != 12 {
		t.Fatalf("MulColVector wrong: %v", got)
	}
}

func TestMatMul(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	got := MatMul(a, b)
	want := FromSlice([]float64{58, 64, 139, 154}, 2, 2)
	if !AllClose(got, want, 0, 1e-12) {
		t.Fatalf("MatMul got %v want %v", got, want)
	}
}

func TestMatMulTransposedVariants(t *testing.T) {
	g := NewRNG(1)
	a := g.Randn(1, 4, 3)
	b := g.Randn(1, 4, 5)
	got := MatMulTA(a, b)
	want := MatMul(Transpose(a), b)
	if !AllClose(got, want, 1e-12, 1e-12) {
		t.Fatal("MatMulTA disagrees with explicit transpose")
	}
	c := g.Randn(1, 3, 4)
	d := g.Randn(1, 5, 4)
	got = MatMulTB(c, d)
	want = MatMul(c, Transpose(d))
	if !AllClose(got, want, 1e-12, 1e-12) {
		t.Fatal("MatMulTB disagrees with explicit transpose")
	}
}

func TestReductions(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	if Sum(x) != 21 || Mean(x) != 3.5 {
		t.Fatal("global reductions wrong")
	}
	sr := SumRows(x)
	if sr.Data[0] != 5 || sr.Data[2] != 9 {
		t.Fatalf("SumRows wrong: %v", sr.Data)
	}
	sc := SumCols(x)
	if sc.Data[0] != 6 || sc.Data[1] != 15 {
		t.Fatalf("SumCols wrong: %v", sc.Data)
	}
	mc, arg := MaxCols(x)
	if mc.Data[0] != 3 || arg[1] != 2 {
		t.Fatalf("MaxCols wrong: %v %v", mc.Data, arg)
	}
}

func TestSoftmaxRows(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 1000, 1001, 1002}, 2, 3)
	s := SoftmaxRows(x)
	for i := 0; i < 2; i++ {
		var z float64
		for j := 0; j < 3; j++ {
			z += s.At(i, j)
		}
		if math.Abs(z-1) > 1e-12 {
			t.Fatalf("softmax row %d sums to %v", i, z)
		}
	}
	// Rows with the same relative offsets must give identical distributions,
	// which only holds with the max-subtraction trick at x=1000.
	if math.Abs(s.At(0, 0)-s.At(1, 0)) > 1e-12 {
		t.Fatal("softmax not shift-invariant (numerical instability)")
	}
	ls := LogSoftmaxRows(x)
	for j := 0; j < 3; j++ {
		if math.Abs(math.Exp(ls.At(0, j))-s.At(0, j)) > 1e-12 {
			t.Fatal("LogSoftmaxRows disagrees with SoftmaxRows")
		}
	}
}

func TestMeanStd(t *testing.T) {
	x := FromSlice([]float64{1, 10, 3, 20}, 2, 2)
	mean, std := MeanStd(x)
	if mean.Data[0] != 2 || mean.Data[1] != 15 {
		t.Fatalf("mean wrong: %v", mean.Data)
	}
	if math.Abs(std.Data[0]-1) > 1e-12 || math.Abs(std.Data[1]-5) > 1e-12 {
		t.Fatalf("std wrong: %v", std.Data)
	}
}

func TestGatherScatterRows(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 3, 2)
	g := GatherRows(x, []int{2, 0, 2})
	if g.Rows() != 3 || g.At(0, 0) != 5 || g.At(2, 1) != 6 {
		t.Fatalf("GatherRows wrong: %v", g)
	}
	s := ScatterAddRows(g, []int{0, 0, 1}, 2)
	if s.At(0, 0) != 6 || s.At(1, 1) != 6 {
		t.Fatalf("ScatterAddRows wrong: %v", s)
	}
}

func TestConcatSplit(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float64{5, 6}, 2, 1)
	cc := ConcatCols(a, b)
	if cc.Cols() != 3 || cc.At(1, 2) != 6 {
		t.Fatalf("ConcatCols wrong: %v", cc)
	}
	parts := SplitCols(cc, 2, 1)
	if !AllClose(parts[0], a, 0, 0) || !AllClose(parts[1], b, 0, 0) {
		t.Fatal("SplitCols must invert ConcatCols")
	}
	cr := ConcatRows(a, b.Reshape(1, 2))
	if cr.Rows() != 3 || cr.At(2, 1) != 6 {
		t.Fatalf("ConcatRows wrong: %v", cr)
	}
}

func TestRepeatRows(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	r := RepeatRows(x, 3)
	if r.Rows() != 6 || r.At(2, 0) != 1 || r.At(3, 0) != 3 {
		t.Fatalf("RepeatRows wrong: %v", r)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(7).Randn(1, 4, 4)
	b := NewRNG(7).Randn(1, 4, 4)
	if !AllClose(a, b, 0, 0) {
		t.Fatal("same seed must give identical tensors")
	}
	c := NewRNG(8).Randn(1, 4, 4)
	if AllClose(a, c, 0, 0) {
		t.Fatal("different seeds should differ")
	}
}

func TestDotNormAllClose(t *testing.T) {
	a := FromSlice([]float64{3, 4}, 2)
	if Dot(a, a) != 25 || Norm(a) != 5 {
		t.Fatal("Dot/Norm wrong")
	}
	b := FromSlice([]float64{3, 4 + 1e-9}, 2)
	if !AllClose(a, b, 0, 1e-8) {
		t.Fatal("AllClose should accept tiny diff")
	}
	if AllClose(a, b, 0, 1e-12) {
		t.Fatal("AllClose should reject larger diff")
	}
	if MaxAbsDiff(a, b) == 0 {
		t.Fatal("MaxAbsDiff should be nonzero")
	}
}
