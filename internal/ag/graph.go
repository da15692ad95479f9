// Package ag implements tape-based reverse-mode automatic differentiation
// over the tensor package, plus the graph-specific differentiable primitives
// (gather/scatter message passing, edge softmax, segment reduction) that GNN
// frameworks are built from.
//
// Every operation executes as a "kernel" on the graph's device, so the
// simulated accelerator (internal/device) sees the same kernel stream a GPU
// profiler would: one launch per op, with FLOP and byte counts.
//
// Every op output, workspace and gradient buffer comes from the tensor buffer
// pool and goes back to it at Finish, so node values and gradients die
// there: read what you need before calling it.
//
// A tape is one of two kinds. New returns a training tape, which records
// every op's backward closure. NewInference returns a forward-only tape —
// models.Infer and models.CompiledInfer are its only callers — on which
// Backward and BeginStep panic, and which may execute an op chain on the host
// in fewer passes than the kernels it charges the device for (GatherScatter,
// Epilogue).
// Both kinds charge the device the same kernel stream and produce the same
// bits.
//
// Usage per training step (eager: recorded once and not replayed):
//
//	g := ag.New(dev)
//	x := g.Input(features)
//	h := g.ReLU(g.AddBias(g.MatMul(x, g.Param(W)), g.Param(b)))
//	loss := g.CrossEntropy(h, labels, nil)
//	g.Backward(loss)             // accumulates into W.Grad, b.Grad
//	v := loss.Value().Data[0]    // before Finish
//	g.Finish()                   // returns every buffer to the pool
//
// Record/replay (the zero-allocation steady state): every op records a
// forward closure writing its output buffer in place, so one recorded tape
// can be re-executed against fresh input data without rebuilding it:
//
//	g := ag.New(dev)
//	loss := model.Forward(g, batch, ...)   // records the tape (allocates)
//	for step := range steps {              // steady state: zero allocations
//		g.BeginStep()          // recycle last step's gradient buffers
//		g.ReplayForward()      // re-run every forward kernel in place
//		g.Backward(loss)
//		opt.Step()
//	}
//	g.Finish()                 // returns every buffer to the pool
//
// Replay reads whatever the input tensors and index slices hold at re-run
// time, so serving code swaps a new batch in by copying into the recorded
// buffers. A recorded pass and its replays run the same kernels in the same
// order and are bit-identical.
package ag

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/tensor"
)

// Parameter is a trainable tensor with its accumulated gradient. Parameters
// are owned by modules (internal/nn) and updated by optimizers
// (internal/optim); the graph only reads Value and accumulates into Grad.
type Parameter struct {
	Name  string
	Value *tensor.Tensor
	Grad  *tensor.Tensor
}

// NewParameter wraps a value tensor as a named parameter with a zero gradient.
func NewParameter(name string, value *tensor.Tensor) *Parameter {
	return &Parameter{Name: name, Value: value, Grad: tensor.NewLike(value)}
}

// ZeroGrad clears the accumulated gradient.
func (p *Parameter) ZeroGrad() { p.Grad.Zero() }

// Node is one value on the tape. Its gradient is materialized lazily during
// Backward. fwd re-runs the op's forward kernel in place for replay (nil for
// inputs, parameters, and secondary outputs of multi-output ops).
type Node struct {
	T            *tensor.Tensor
	grad         *tensor.Tensor
	requiresGrad bool
	backward     func(g *Graph)
	fwd          func()
	flops, bytes int64
	label        string
	// epi is the epilogue slot of an inference tape's destination-row
	// aggregation (GatherScatter, GSpMMSum), which its kernel reads on
	// every run; Epilogue fills it. nil on every other node.
	epi *tensor.Epilogue
}

// Value returns the node's tensor.
func (n *Node) Value() *tensor.Tensor { return n.T }

// Graph is an autodiff tape bound to a device, re-executable via
// ReplayForward.
type Graph struct {
	dev        *device.Device
	inference  bool // built by NewInference: forward only
	tape       []*Node
	allocBytes int64
	finished   bool

	owned    []*tensor.Tensor // pooled buffers released at Finish (outputs + workspaces)
	onReplay []func()         // constant-refresh hooks run before each replay
}

// New returns an empty training tape recording kernels and allocations on
// dev. dev may be nil, in which case no accounting happens. The tape draws
// every buffer from the tensor pool; Finish hands them back.
func New(dev *device.Device) *Graph {
	return &Graph{dev: dev}
}

// NewInference returns an empty forward-only tape on dev: Backward and
// BeginStep panic on it, GatherScatter runs as one host pass, and Epilogue
// folds GCN's layer tail into the aggregation before it. It is for
// models.Infer and models.CompiledInfer; everything else records on New.
func NewInference(dev *device.Device) *Graph {
	return &Graph{dev: dev, inference: true}
}

// Device returns the graph's device (may be nil).
func (g *Graph) Device() *device.Device { return g.dev }

// alloc records t's storage as live device memory owned by this graph.
func (g *Graph) alloc(t *tensor.Tensor) {
	if t == nil {
		return
	}
	g.charge(int64(t.Size()) * 8)
}

// charge records b bytes of live device memory owned by this graph until
// Finish.
func (g *Graph) charge(b int64) {
	g.allocBytes += b
	g.dev.Alloc(b)
}

// run executes f as one device kernel.
func (g *Graph) run(flops, bytes int64, f func()) {
	g.dev.Kernel(flops, bytes, f)
}

// get draws a zeroed op output or workspace buffer from the pool; the graph
// owns it and releases it at Finish.
func (g *Graph) get(shape ...int) *tensor.Tensor {
	t := tensor.Get(shape...)
	g.owned = append(g.owned, t)
	return t
}

// getLike is get with t's shape, without copying the shape slice.
func (g *Graph) getLike(t *tensor.Tensor) *tensor.Tensor {
	o := tensor.GetLike(t)
	g.owned = append(g.owned, o)
	return o
}

// tempLike draws zeroed backward scratch with t's shape from the pool; the
// caller returns it with freeTemp after accumulating.
func (g *Graph) tempLike(t *tensor.Tensor) *tensor.Tensor { return tensor.GetLike(t) }

// freeTemp returns backward scratch to the pool.
func (g *Graph) freeTemp(ts ...*tensor.Tensor) { tensor.Release(ts...) }

// node appends a tape entry whose output tensor was freshly allocated by the
// op (and is therefore accounted as device memory).
func (g *Graph) node(t *tensor.Tensor, requiresGrad bool, label string, backward func(*Graph)) *Node {
	g.alloc(t)
	n := &Node{T: t, requiresGrad: requiresGrad, backward: backward, label: label}
	g.tape = append(g.tape, n)
	return n
}

// op runs fwd once as a kernel and appends the resulting node, remembering
// fwd and its accounting so ReplayForward can re-execute the tape. out points
// at the variable fwd writes its output buffer through: fwd acquires the
// buffer lazily on its first (recording) run, so the allocation is charged
// inside the kernel — exactly where the historical eager ops allocated — and
// replays reuse the recorded buffer without touching the allocator.
func (g *Graph) op(out **tensor.Tensor, requiresGrad bool, label string, flops, bytes int64, fwd func()) *Node {
	g.run(flops, bytes, fwd)
	n := g.node(*out, requiresGrad, label, nil)
	n.fwd = fwd
	n.flops, n.bytes = flops, bytes
	return n
}

// deviceOnly records a kernel the simulated device is charged for but the
// host does not run, whose output of outBytes the device holds until Finish:
// an op an inference tape has fused into another. Replays charge it again,
// so recorded and replayed passes see the same kernel stream. host is the
// work this recording does in the kernel's place (nop when there is none);
// replays run nop.
func (g *Graph) deviceOnly(label string, flops, bytes, outBytes int64, host func()) {
	g.run(flops, bytes, host)
	g.charge(outBytes)
	g.tape = append(g.tape, &Node{fwd: nop, flops: flops, bytes: bytes, label: label})
}

func nop() {}

// Input wraps a tensor that requires no gradient (features, constants).
// The tensor is assumed to already reside on the device (datasets and batch
// buffers account for their own storage), so no allocation is recorded.
func (g *Graph) Input(t *tensor.Tensor) *Node {
	n := &Node{T: t, label: "input"}
	g.tape = append(g.tape, n)
	return n
}

// Param wraps a trainable parameter. After Backward, the node's gradient is
// accumulated into p.Grad.
func (g *Graph) Param(p *Parameter) *Node {
	n := &Node{T: p.Value, requiresGrad: true, label: "param:" + p.Name}
	n.backward = func(g *Graph) {
		if n.grad != nil {
			tensor.AddInPlace(p.Grad, n.grad)
		}
	}
	g.tape = append(g.tape, n)
	return n
}

// accum adds grad into n's gradient buffer, allocating it on first touch.
// Ops call this only for inputs that require gradients.
func (g *Graph) accum(n *Node, grad *tensor.Tensor) {
	if !n.requiresGrad {
		return
	}
	first := n.grad == nil
	g.run(int64(grad.Size()), int64(grad.Size())*24, func() {
		if first {
			// Output-buffer allocation is the device allocator's job; it
			// belongs inside the kernel accounting. A replayed step recycles
			// the buffer released by the previous BeginStep.
			n.grad = tensor.GetLike(n.T)
		}
		tensor.AddInPlace(n.grad, grad)
	})
	if first {
		g.alloc(n.grad)
	}
}

// Backward runs reverse-mode differentiation from loss, which must be a
// scalar (shape [1]) node on this tape. Gradients accumulate into every
// parameter bound via Param.
func (g *Graph) Backward(loss *Node) {
	g.mustTrain("Backward")
	if loss.T.Size() != 1 {
		panic(fmt.Sprintf("ag: Backward needs a scalar loss, got shape %v", loss.T.Shape()))
	}
	if !loss.requiresGrad {
		panic("ag: loss does not depend on any parameter")
	}
	loss.grad = tensor.GetLike(loss.T)
	loss.grad.Data[0] = 1
	g.alloc(loss.grad)
	for i := len(g.tape) - 1; i >= 0; i-- {
		n := g.tape[i]
		if n.grad == nil || n.backward == nil {
			continue
		}
		n.backward(g)
	}
}

// ReplayForward re-executes every recorded forward kernel in tape order,
// writing each op's output buffer in place. Inputs, parameters and
// batch-index slices are read as they are now, so callers refresh data by
// copying into the recorded buffers before replaying.
func (g *Graph) ReplayForward() {
	if g.finished {
		panic(fmt.Sprintf("ag: ReplayForward after Finish of this %s tape", g.kindName()))
	}
	for _, f := range g.onReplay {
		f()
	}
	for _, n := range g.tape {
		if n.fwd != nil {
			g.run(n.flops, n.bytes, n.fwd)
		}
	}
}

// OnReplay registers f to run at the start of every ReplayForward, before
// any kernel. Models and backends use it to refresh batch-derived constant
// tensors (degree normalizations, pseudo-coordinates) that eager recording
// computes host-side, so a replayed tape tracks whatever data the recorded
// batch buffers currently hold. The hooks never run on the eager path.
func (g *Graph) OnReplay(f func()) { g.onReplay = append(g.onReplay, f) }

// BeginStep returns the previous step's gradient buffers to the pool so the
// next Backward re-draws them without allocating. Call it before each
// replayed step.
//
//gnnvet:allow unreachable -- TestTrainingStepZeroAllocs
func (g *Graph) BeginStep() {
	g.mustTrain("BeginStep")
	for _, n := range g.tape {
		if n.grad == nil {
			continue
		}
		b := int64(n.grad.Size()) * 8
		g.allocBytes -= b
		g.dev.Free(b)
		tensor.Release(n.grad)
		n.grad = nil
	}
}

// Finish releases the device-memory accounting for every intermediate this
// graph allocated and returns every buffer (outputs, workspaces, gradients)
// to the tensor pool, so no node's Value or Grad may be read afterwards —
// copy what must outlive the tape first. Call it exactly once, after the last
// step, to mirror the end-of-iteration free that frameworks perform when the
// autograd graph is dropped.
func (g *Graph) Finish() {
	if g.finished {
		panic("ag: Finish called twice")
	}
	g.finished = true
	g.dev.Free(g.allocBytes)
	g.allocBytes = 0
	tensor.Release(g.owned...)
	for _, n := range g.tape {
		if n.grad != nil {
			tensor.Release(n.grad)
			n.grad = nil
		}
	}
	g.owned = nil
	g.tape = nil
	g.onReplay = nil
}

// mustTrain panics unless g is a training tape.
func (g *Graph) mustTrain(op string) {
	if g.inference {
		panic("ag: " + op + " on an inference tape (ag.NewInference records no gradients)")
	}
}

func (g *Graph) kindName() string {
	if g.inference {
		return "inference"
	}
	return "training"
}

// check2 panics unless n's tensor is rank 2.
func check2(op string, n *Node) {
	if n.T.Rank() != 2 {
		panic(fmt.Sprintf("ag: %s wants rank-2 node, got %v", op, n.T.Shape()))
	}
}
