package ag

import (
	"testing"

	"repro/internal/device"
	"repro/internal/tensor"
)

func TestForwardValues(t *testing.T) {
	g := New(nil)
	a := g.Input(tensor.FromSlice([]float64{1, 2, 3, 4}, 2, 2))
	b := g.Input(tensor.FromSlice([]float64{5, 6, 7, 8}, 2, 2))
	sum := g.Add(a, b)
	if sum.Value().At(1, 1) != 12 {
		t.Fatalf("Add forward wrong: %v", sum.Value())
	}
	prod := g.MatMul(a, b)
	if prod.Value().At(0, 0) != 19 {
		t.Fatalf("MatMul forward wrong: %v", prod.Value())
	}
}

func TestBackwardSimpleChain(t *testing.T) {
	// loss = mean((x*W)), dloss/dW should be known analytically.
	w := NewParameter("w", tensor.FromSlice([]float64{1, 2, 3, 4}, 2, 2))
	x := tensor.FromSlice([]float64{1, 0, 0, 1}, 2, 2) // identity
	g := New(nil)
	loss := g.MeanAll(g.MatMul(g.Input(x), g.Param(w)))
	g.Backward(loss)
	// y = W, loss = mean(W), dloss/dW = 1/4 everywhere.
	for i, v := range w.Grad.Data {
		if v != 0.25 {
			t.Fatalf("grad[%d] = %v, want 0.25", i, v)
		}
	}
}

func TestGradAccumulatesAcrossBackward(t *testing.T) {
	w := NewParameter("w", tensor.FromSlice([]float64{1}, 1, 1))
	for k := 0; k < 2; k++ {
		g := New(nil)
		loss := g.MeanAll(g.Param(w))
		g.Backward(loss)
	}
	if w.Grad.Data[0] != 2 {
		t.Fatalf("grad should accumulate across graphs: %v", w.Grad.Data[0])
	}
	w.ZeroGrad()
	if w.Grad.Data[0] != 0 {
		t.Fatal("ZeroGrad failed")
	}
}

func TestBackwardRequiresScalar(t *testing.T) {
	g := New(nil)
	w := NewParameter("w", tensor.Ones(2, 2))
	n := g.Param(w)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-scalar loss")
		}
	}()
	g.Backward(n)
}

func TestBackwardRequiresGradPath(t *testing.T) {
	g := New(nil)
	x := g.Input(tensor.Full(3, 1))
	loss := g.MeanAll(x)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic when loss has no parameter dependency")
		}
	}()
	g.Backward(loss)
}

func TestDeviceAccountingLifecycle(t *testing.T) {
	dev := device.Default()
	w := NewParameter("w", tensor.Ones(4, 4))
	g := New(dev)
	x := g.Input(tensor.Ones(4, 4))
	loss := g.MeanAll(g.ReLU(g.MatMul(x, g.Param(w))))
	g.Backward(loss)
	s := dev.Stats()
	if s.Kernels == 0 || s.AllocBytes == 0 || s.PeakBytes == 0 {
		t.Fatalf("device saw no work: %+v", s)
	}
	g.Finish()
	if got := dev.Stats().AllocBytes; got != 0 {
		t.Fatalf("Finish must free all graph memory, %d bytes left", got)
	}
	if dev.Stats().PeakBytes == 0 {
		t.Fatal("peak must survive Finish")
	}
}

func TestFinishTwicePanics(t *testing.T) {
	g := New(nil)
	g.Finish()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double Finish")
		}
	}()
	g.Finish()
}

func TestNoGradForInputs(t *testing.T) {
	w := NewParameter("w", tensor.Ones(2, 2))
	g := New(nil)
	x := g.Input(tensor.Ones(2, 2))
	y := g.MatMul(x, g.Param(w))
	loss := g.MeanAll(y)
	g.Backward(loss)
	if x.grad != nil {
		t.Fatal("inputs must not receive gradients")
	}
	if !y.requiresGrad {
		t.Fatal("requiresGrad must propagate")
	}
}

func TestDropoutModes(t *testing.T) {
	rng := tensor.NewRNG(3)
	x := tensor.Ones(100, 10)
	g := New(nil)
	// Eval mode: identity, same node.
	n := g.Input(x)
	if got := g.Dropout(n, 0.5, false, rng); got != n {
		t.Fatal("eval-mode dropout must be identity")
	}
	// Train mode: some zeros, survivors scaled by 2.
	d := g.Dropout(n, 0.5, true, rng)
	zeros, twos := 0, 0
	for _, v := range d.Value().Data {
		switch v {
		case 0:
			zeros++
		case 2:
			twos++
		default:
			t.Fatalf("dropout output must be 0 or 2, got %v", v)
		}
	}
	if zeros == 0 || twos == 0 {
		t.Fatal("dropout should both keep and drop at p=0.5")
	}
	got := float64(twos) / float64(zeros+twos)
	if got < 0.4 || got > 0.6 {
		t.Fatalf("keep rate %v too far from 0.5", got)
	}
}

func TestAccuracyMetric(t *testing.T) {
	logits := tensor.FromSlice([]float64{
		2, 1, 0,
		0, 3, 0,
		1, 0, 5,
		9, 0, 0,
	}, 4, 3)
	labels := []int{0, 1, 0, 1}
	if acc := Accuracy(logits, labels, nil); acc != 0.5 {
		t.Fatalf("Accuracy = %v, want 0.5", acc)
	}
	if acc := Accuracy(logits, labels, []int{0, 1}); acc != 1 {
		t.Fatalf("masked Accuracy = %v, want 1", acc)
	}
}
