package ag

import (
	"math"
	"testing"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// Replay and zero-allocation tests for the pooled record/replay engine: the
// eager path and a replayed tape must produce bit-identical losses and
// gradients, and the steady-state replayed step must not touch the heap.

// replayFixture builds a small but representative message-passing network on
// g: dropout-free MatMul/AddBias/ReLU feature transform, gather-scatter
// aggregation with edge softmax, and a cross-entropy head — every structural
// op class the models use.
type replayFixture struct {
	x      *tensor.Tensor
	w1, b1 *Parameter
	wa     *Parameter
	w2     *Parameter
	src    []int
	dst    []int
	labels []int
}

func newReplayFixture() *replayFixture {
	rng := tensor.NewRNG(7)
	const n, f, h, c = 12, 6, 8, 3
	fx := &replayFixture{
		x:      rng.Randn(1, n, f),
		w1:     NewParameter("w1", rng.Randn(0.3, f, h)),
		b1:     NewParameter("b1", rng.Randn(0.1, h)),
		wa:     NewParameter("wa", rng.Randn(0.3, h, 1)),
		w2:     NewParameter("w2", rng.Randn(0.3, h, c)),
		labels: make([]int, n),
	}
	for e := 0; e < 3*n; e++ {
		fx.src = append(fx.src, rng.IntN(n))
		fx.dst = append(fx.dst, rng.IntN(n))
	}
	for i := range fx.labels {
		fx.labels[i] = rng.IntN(c)
	}
	return fx
}

// record builds the tape on g and returns the loss node.
func (fx *replayFixture) record(g *Graph) *Node {
	x := g.Input(fx.x)
	h := g.ReLU(g.AddBias(g.MatMul(x, g.Param(fx.w1)), g.Param(fx.b1)))
	msg := g.Gather(h, fx.src)
	scores := g.MatMul(msg, g.Param(fx.wa))
	att := g.EdgeSoftmax(scores, fx.dst, fx.x.Rows())
	agg := g.ScatterAdd(g.MulBroadcastCol(msg, att), fx.dst, fx.x.Rows())
	logits := g.MatMul(agg, g.Param(fx.w2))
	return g.CrossEntropy(logits, fx.labels, nil)
}

// grads snapshots the parameter gradients.
func (fx *replayFixture) grads() [][]float64 {
	var out [][]float64
	for _, p := range fx.params() {
		out = append(out, append([]float64(nil), p.Grad.Data...))
	}
	return out
}

func (fx *replayFixture) params() []*Parameter {
	return []*Parameter{fx.w1, fx.b1, fx.wa, fx.w2}
}

func (fx *replayFixture) zeroGrads() {
	for _, p := range fx.params() {
		p.ZeroGrad()
	}
}

// drainedStep runs one eager training step of the fixture on a drained pool,
// so every buffer is fresh from the allocator (what an unpooled tape would
// see), and returns its loss and parameter gradients.
func (fx *replayFixture) drainedStep() (float64, [][]float64) {
	tensor.DrainPool()
	fx.zeroGrads()
	g := New(nil)
	loss := fx.record(g)
	g.Backward(loss)
	want := loss.Value().Data[0]
	g.Finish()
	return want, fx.grads()
}

// TestReplayBitIdenticalToEager pins the tentpole equivalence: a tape
// recorded on a warm, poisoned pool (TestMain) and replayed N times produces
// bit-for-bit the loss and gradients of an eager step on a drained pool.
func TestReplayBitIdenticalToEager(t *testing.T) {
	fx := newReplayFixture()
	wantLoss, wantGrads := fx.drainedStep()

	// Step 0 records the tape on the warm pool; steps 1-3 replay it.
	warm := tensor.Pool()
	fx.zeroGrads()
	gp := New(nil)
	ploss := fx.record(gp)
	defer gp.Finish()
	for step := 0; step < 4; step++ {
		if step > 0 {
			fx.zeroGrads()
			gp.BeginStep()
			gp.ReplayForward()
		}
		if got := ploss.Value().Data[0]; got != wantLoss {
			t.Fatalf("step %d loss %v != drained-pool loss %v", step, got, wantLoss)
		}
		gp.Backward(ploss)
		for pi, grad := range fx.grads() {
			for i, v := range grad {
				if math.Float64bits(v) != math.Float64bits(wantGrads[pi][i]) {
					t.Fatalf("step %d param %d grad[%d] = %v, drained pool %v (not bit-identical)",
						step, pi, i, v, wantGrads[pi][i])
				}
			}
		}
	}
	if tensor.Pool().Hits == warm.Hits {
		t.Fatal("the warm-pool steps drew no buffer from the pool; nothing was compared against recycled buffers")
	}
}

// TestReplayTracksRefreshedInputs pins the serving contract: copying new
// data into the recorded input buffer and replaying, on a warm poisoned
// pool, yields exactly what an eager step over the new data computes on a
// drained one.
func TestReplayTracksRefreshedInputs(t *testing.T) {
	fx := newReplayFixture()
	old := fx.x.Clone()
	rng := tensor.NewRNG(99)
	fresh := rng.Randn(1, fx.x.Rows(), fx.x.Cols())
	copy(fx.x.Data, fresh.Data)
	want, _ := fx.drainedStep()

	copy(fx.x.Data, old.Data)
	gp := New(nil)
	ploss := fx.record(gp)
	defer gp.Finish()
	copy(fx.x.Data, fresh.Data)
	gp.BeginStep()
	gp.ReplayForward()
	if got := ploss.Value().Data[0]; got != want {
		t.Fatalf("replay over refreshed input = %v, drained-pool eager = %v", got, want)
	}
}

// TestTrainingStepZeroAllocs is the tentpole acceptance test at the autograd
// layer: once the tape is warm, a full training step — gradient recycling,
// forward replay, backward, SGD update — performs zero heap allocations.
func TestTrainingStepZeroAllocs(t *testing.T) {
	if tensor.RaceEnabled {
		t.Skip("race instrumentation allocates; AllocsPerRun is meaningless under -race")
	}
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	poison := tensor.SetPoolPoison(true)
	defer tensor.SetPoolPoison(poison)

	fx := newReplayFixture()
	g := New(nil)
	loss := fx.record(g)
	defer g.Finish()
	params := fx.params()

	step := func() {
		g.BeginStep()
		g.ReplayForward()
		g.Backward(loss)
		for _, p := range params {
			for i, gv := range p.Grad.Data {
				p.Value.Data[i] -= 1e-3 * gv
			}
			p.Grad.Zero()
		}
	}
	step() // warm: first Backward draws gradient buffers from the pool
	if allocs := testing.AllocsPerRun(50, step); allocs != 0 {
		t.Errorf("steady-state training step = %v allocs/op, want 0", allocs)
	}
	if v := loss.Value().Data[0]; math.IsNaN(v) {
		t.Fatalf("loss went NaN under pool poisoning: a kernel read a released buffer")
	}
}
