package optim

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/ag"
	"repro/internal/tensor"
)

// quadLoss builds loss = mean((w - target)^2) and runs backward.
func quadStep(w *ag.Parameter, target float64) float64 {
	g := ag.New(nil)
	diff := g.AddScalar(g.Param(w), -target)
	loss := g.MeanAll(g.Square(diff))
	g.Backward(loss)
	return loss.Value().Data[0]
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	w := ag.NewParameter("w", tensor.Full(10, 4))
	opt := NewAdam([]*ag.Parameter{w}, 0.1)
	var loss float64
	for i := 0; i < 500; i++ {
		opt.ZeroGrad()
		loss = quadStep(w, 3)
		opt.Step()
	}
	if loss > 1e-3 {
		t.Fatalf("Adam failed to converge, loss=%v w=%v", loss, w.Value.Data)
	}
	for _, v := range w.Value.Data {
		if math.Abs(v-3) > 0.05 {
			t.Fatalf("w=%v, want ~3", v)
		}
	}
}

func TestAdamWeightDecayShrinks(t *testing.T) {
	// With pure decay (no loss gradient) weights must shrink toward zero.
	w := ag.NewParameter("w", tensor.Full(1, 2))
	opt := NewAdam([]*ag.Parameter{w}, 0.05)
	opt.WeightDecay = 1.0
	for i := 0; i < 100; i++ {
		opt.ZeroGrad()
		opt.Step()
	}
	if math.Abs(w.Value.Data[0]) > 0.2 {
		t.Fatalf("weight decay did not shrink weights: %v", w.Value.Data[0])
	}
}

func TestZeroGrad(t *testing.T) {
	w := ag.NewParameter("w", tensor.Ones(2))
	w.Grad.Fill(5)
	opt := NewAdam([]*ag.Parameter{w}, 0.1)
	opt.ZeroGrad()
	if w.Grad.Data[0] != 0 {
		t.Fatal("ZeroGrad must clear gradients")
	}
}

func TestSetLR(t *testing.T) {
	w := ag.NewParameter("w", tensor.Ones(1))
	opt := NewAdam([]*ag.Parameter{w}, 0.1)
	opt.SetLR(0.01)
	if opt.LR() != 0.01 {
		t.Fatal("SetLR/LR roundtrip failed")
	}
}

func TestPlateauHalvesAfterPatience(t *testing.T) {
	w := ag.NewParameter("w", tensor.Ones(1))
	opt := NewAdam([]*ag.Parameter{w}, 1e-3)
	sch := NewPlateau(opt)
	sch.Patience = 3
	// First observation sets the best.
	if !sch.Step(1.0) {
		t.Fatal("must continue after first step")
	}
	// Patience+1 non-improving epochs trigger one halving.
	for i := 0; i < 4; i++ {
		sch.Step(1.0)
	}
	if got := opt.LR(); math.Abs(got-5e-4) > 1e-12 {
		t.Fatalf("LR = %v, want 5e-4 after plateau", got)
	}
	// Improvement resets the counter.
	sch.Step(0.5)
	for i := 0; i < 3; i++ {
		sch.Step(0.6)
	}
	if got := opt.LR(); math.Abs(got-5e-4) > 1e-12 {
		t.Fatalf("LR = %v changed before patience exhausted", got)
	}
}

func TestPlateauStopsAtMinLR(t *testing.T) {
	w := ag.NewParameter("w", tensor.Ones(1))
	opt := NewAdam([]*ag.Parameter{w}, 4e-6)
	sch := NewPlateau(opt)
	sch.Patience = 0
	cont := true
	steps := 0
	sch.Step(1.0)
	for cont && steps < 100 {
		cont = sch.Step(1.0)
		steps++
	}
	if cont {
		t.Fatal("scheduler must stop once LR < MinLR")
	}
	if opt.LR() >= sch.MinLR {
		t.Fatalf("stopped with LR %v >= MinLR", opt.LR())
	}
	if steps > 10 {
		t.Fatalf("took %d steps to stop from 4e-6", steps)
	}
}

func TestEarlyStopping(t *testing.T) {
	es := &EarlyStopping{Patience: 2}
	if !es.Step(1.0) || !es.Step(0.9) {
		t.Fatal("improving losses must continue")
	}
	if !es.Step(0.95) || !es.Step(0.95) {
		t.Fatal("within patience must continue")
	}
	if es.Step(0.95) {
		t.Fatal("must stop after patience exhausted")
	}
}

func TestGradClip(t *testing.T) {
	w := ag.NewParameter("w", tensor.Ones(2))
	w.Grad.Data[0], w.Grad.Data[1] = 3, 4 // norm 5
	norm := GradClip([]*ag.Parameter{w}, 1)
	if norm != 5 {
		t.Fatalf("pre-clip norm %v, want 5", norm)
	}
	if math.Abs(w.Grad.Data[0]-0.6) > 1e-12 || math.Abs(w.Grad.Data[1]-0.8) > 1e-12 {
		t.Fatalf("clipped grads %v", w.Grad.Data)
	}
	// Under the threshold: untouched.
	GradClip([]*ag.Parameter{w}, 10)
	if math.Abs(w.Grad.Data[0]-0.6) > 1e-12 {
		t.Fatal("grads under maxNorm must not change")
	}
}

func TestCheckFinitePanics(t *testing.T) {
	w := ag.NewParameter("w", tensor.Ones(1))
	w.Value.Data[0] = math.NaN()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for NaN parameter")
		}
	}()
	CheckFinite([]*ag.Parameter{w})
}

func TestAdamBiasCorrectionFirstStep(t *testing.T) {
	// With constant gradient 1, the first Adam step should be ≈ -lr.
	w := ag.NewParameter("w", tensor.New(1))
	w.Grad.Fill(1)
	opt := NewAdam([]*ag.Parameter{w}, 0.1)
	opt.Step()
	if math.Abs(w.Value.Data[0]-(-0.1)) > 1e-6 {
		t.Fatalf("first Adam step %v, want ~-0.1", w.Value.Data[0])
	}
}

// GradClip rescales gradients so their global L2 norm is at most maxNorm.
// Returns the pre-clip norm.
func GradClip(params []*ag.Parameter, maxNorm float64) float64 {
	var total float64
	for _, p := range params {
		for _, g := range p.Grad.Data {
			total += g * g
		}
	}
	norm := math.Sqrt(total)
	if norm > maxNorm && norm > 0 {
		scale := maxNorm / norm
		for _, p := range params {
			tensor.ScaleInPlace(p.Grad, scale)
		}
	}
	return norm
}

// CheckFinite panics if any parameter or gradient is NaN or Inf; training
// loops call it to fail fast on numerical blowups.
func CheckFinite(params []*ag.Parameter) {
	for _, p := range params {
		for _, v := range p.Value.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				panic(fmt.Sprintf("optim: parameter %s is not finite", p.Name))
			}
		}
	}
}
