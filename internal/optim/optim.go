// Package optim implements the optimizers and learning-rate schedules the
// paper's training recipes use: Adam (all experiments), ReduceLROnPlateau
// (graph-classification recipe: factor 0.5, patience 25, min_lr 1e-6) and
// its early-stopping rule.
package optim

import (
	"math"

	"repro/internal/ag"
	"repro/internal/device"
	"repro/internal/tensor"
)

// Optimizer updates parameters from their accumulated gradients.
type Optimizer interface {
	// Step applies one update and leaves gradients untouched.
	Step()
	// ZeroGrad clears all parameter gradients.
	ZeroGrad()
	// LR returns the current learning rate.
	LR() float64
	// SetLR replaces the learning rate (used by schedulers).
	SetLR(lr float64)
}

// Adam implements Kingma & Ba (2015) with PyTorch-default hyperparameters,
// the optimizer used for every experiment in the paper.
type Adam struct {
	Params       []*ag.Parameter
	lr           float64
	Beta1, Beta2 float64
	Eps          float64
	WeightDecay  float64

	dev  *device.Device
	step int
	m, v []*tensor.Tensor
}

// NewAdam returns Adam over params with the given learning rate and defaults
// beta1=0.9, beta2=0.999, eps=1e-8, no weight decay.
func NewAdam(params []*ag.Parameter, lr float64) *Adam {
	a := &Adam{Params: params, lr: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
	a.m = make([]*tensor.Tensor, len(params))
	a.v = make([]*tensor.Tensor, len(params))
	for i, p := range params {
		a.m[i] = tensor.New(p.Value.Shape()...)
		a.v[i] = tensor.New(p.Value.Shape()...)
	}
	return a
}

// SetDevice makes Step run its per-parameter updates as kernels on dev, so
// the optimizer's work shows up in the device's activity accounting (the
// paper's "parameters updating" phase runs on the GPU).
func (a *Adam) SetDevice(dev *device.Device) { a.dev = dev }

// Step applies one Adam update.
func (a *Adam) Step() {
	a.step++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.step))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.step))
	for i, p := range a.Params {
		n := int64(p.Value.Size())
		a.dev.Kernel(10*n, 40*n, func() { a.update(i, bc1, bc2) })
	}
}

func (a *Adam) update(i int, bc1, bc2 float64) {
	p := a.Params[i]
	m, v := a.m[i], a.v[i]
	for j := range p.Value.Data {
		g := p.Grad.Data[j]
		if a.WeightDecay != 0 {
			g += a.WeightDecay * p.Value.Data[j]
		}
		m.Data[j] = a.Beta1*m.Data[j] + (1-a.Beta1)*g
		v.Data[j] = a.Beta2*v.Data[j] + (1-a.Beta2)*g*g
		mhat := m.Data[j] / bc1
		vhat := v.Data[j] / bc2
		p.Value.Data[j] -= a.lr * mhat / (math.Sqrt(vhat) + a.Eps)
	}
}

// ZeroGrad implements Optimizer.
func (a *Adam) ZeroGrad() {
	for _, p := range a.Params {
		p.ZeroGrad()
	}
}

// StepCount returns how many updates have been applied — the bias-correction
// clock checkpoints must persist: restoring moments without it would re-warm
// the corrections and diverge from an uninterrupted run.
func (a *Adam) StepCount() int { return a.step }

// SetStepCount restores a checkpointed update count.
func (a *Adam) SetStepCount(n int) { a.step = n }

// Moments returns the first and second moment accumulators, index-aligned
// with Params. Callers (the checkpoint encoder/decoder) read and write the
// tensors in place.
func (a *Adam) Moments() (m, v []*tensor.Tensor) { return a.m, a.v }

// LR implements Optimizer.
func (a *Adam) LR() float64 { return a.lr }

// SetLR implements Optimizer.
func (a *Adam) SetLR(lr float64) { a.lr = lr }

// ReduceLROnPlateau halves (by Factor) the optimizer's learning rate when the
// monitored value (validation loss) has not improved for Patience epochs.
// Training stops when the learning rate falls below MinLR — the paper's
// graph-classification stopping rule.
type ReduceLROnPlateau struct {
	Opt      Optimizer
	Factor   float64
	Patience int
	MinLR    float64

	best    float64
	bad     int
	started bool
}

// NewPlateau returns the paper's scheduler: factor 0.5, patience 25,
// min_lr 1e-6.
func NewPlateau(opt Optimizer) *ReduceLROnPlateau {
	return &ReduceLROnPlateau{Opt: opt, Factor: 0.5, Patience: 25, MinLR: 1e-6}
}

// State returns the plateau tracker's progress (best value seen, epochs
// without improvement, whether any value has been fed) for checkpointing.
func (r *ReduceLROnPlateau) State() (best float64, bad int, started bool) {
	return r.best, r.bad, r.started
}

// SetState restores progress captured by State.
func (r *ReduceLROnPlateau) SetState(best float64, bad int, started bool) {
	r.best, r.bad, r.started = best, bad, started
}

// Step feeds one epoch's validation loss. It returns true while training
// should continue and false once the learning rate has decayed below MinLR.
func (r *ReduceLROnPlateau) Step(valLoss float64) bool {
	if !r.started || valLoss < r.best-1e-12 {
		r.best = valLoss
		r.bad = 0
		r.started = true
	} else {
		r.bad++
		if r.bad > r.Patience {
			r.Opt.SetLR(r.Opt.LR() * r.Factor)
			r.bad = 0
		}
	}
	return r.Opt.LR() >= r.MinLR
}

// EarlyStopping stops when the monitored value has not improved for Patience
// epochs (used by the node-classification recipe alongside the fixed epoch
// cap).
type EarlyStopping struct {
	Patience int

	best    float64
	bad     int
	started bool
}

// State returns the stopper's progress for checkpointing.
func (e *EarlyStopping) State() (best float64, bad int, started bool) {
	return e.best, e.bad, e.started
}

// SetState restores progress captured by State.
func (e *EarlyStopping) SetState(best float64, bad int, started bool) {
	e.best, e.bad, e.started = best, bad, started
}

// Step feeds one epoch's monitored loss; it returns false once patience is
// exhausted.
func (e *EarlyStopping) Step(loss float64) bool {
	if !e.started || loss < e.best-1e-12 {
		e.best = loss
		e.bad = 0
		e.started = true
		return true
	}
	e.bad++
	return e.bad <= e.Patience
}
