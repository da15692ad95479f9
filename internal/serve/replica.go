package serve

import (
	"sync"
	"sync/atomic"

	"repro/internal/device"
	"repro/internal/fw"
	"repro/internal/models"
	"repro/internal/tensor"
)

// Replica is one forward-only model instance a Pool runs batches on. The
// pool hands a replica to one RunBatch call at a time, so implementations
// need no locking of their own; the production implementation wraps a
// models.Model, and tests substitute instrumented fakes.
type Replica interface {
	// Backend returns the framework whose collation path feeds this replica.
	Backend() fw.Backend
	// Forward computes class logits (one row per graph) for a batch produced
	// by Backend's collation.
	Forward(b *fw.Batch) *tensor.Tensor
	// Device returns the accelerator the replica's kernels and batches are
	// accounted to (may be nil for unaccounted execution).
	Device() *device.Device
}

// Swappable is a Replica whose model can be replaced while the server keeps
// running — the mechanism behind zero-downtime reload. Swap must be safe to
// call concurrently with Forward; an in-flight batch finishes on the model
// it started with.
type Swappable interface {
	Replica
	// Swap replaces the replica's model with m (copy-on-swap: m is a fully
	// constructed model, typically freshly loaded from a checkpoint, and the
	// previous model stays valid for batches already in flight).
	Swap(m models.Model)
}

// modelReplica adapts a models.Model to the Replica interface. The model is
// held behind an atomic pointer so Swap never blocks a batch: Forward
// loads the pointer once per batch, which pins that batch to one model from
// collation through response.
type modelReplica struct {
	m   atomic.Pointer[modelBox]
	dev *device.Device
}

// modelBox exists because atomic.Pointer needs a concrete pointee and
// models.Model is an interface.
type modelBox struct{ m models.Model }

// NewModelReplica wraps m as a serving replica accounted to dev. Eval-mode
// forward passes are side-effect-free, so several replicas may share one
// model (shared parameters, independent devices) — the cheap way to scale
// serving throughput without duplicating weights.
func NewModelReplica(m models.Model, dev *device.Device) Replica {
	r := &modelReplica{dev: dev}
	r.m.Store(&modelBox{m: m})
	return r
}

func (r *modelReplica) Backend() fw.Backend { return r.m.Load().m.Backend() }

func (r *modelReplica) Forward(b *fw.Batch) *tensor.Tensor {
	return models.Infer(r.m.Load().m, b, r.dev)
}

func (r *modelReplica) Device() *device.Device { return r.dev }

// Swap implements Swappable.
func (r *modelReplica) Swap(m models.Model) { r.m.Store(&modelBox{m: m}) }

// compiledReplica serves through a models.CompiledInfer: each batch shape's
// forward tape is recorded once and replayed in place, so the steady-state
// forward pass allocates nothing.
//
// The CompiledInfer is not thread-safe; the pool's one-batch-per-replica
// contract provides the required serialization. The output tensor a replay
// returns is owned by the tape and consumed (argmax + row copies) before the
// replica goes back to the pool.
type compiledReplica struct {
	m   atomic.Pointer[compiledBox]
	dev *device.Device

	mu      sync.Mutex
	retired []*models.CompiledInfer // swapped out; closed by the next Forward
}

type compiledBox struct {
	m  models.Model
	ci *models.CompiledInfer
}

// NewCompiledModelReplica wraps m as a compiled serving replica accounted to
// dev. tensor.F64 is the only precision; like NewModelReplica, several
// replicas may share one model.
func NewCompiledModelReplica(m models.Model, dev *device.Device, _ tensor.DType) Replica {
	r := &compiledReplica{dev: dev}
	r.m.Store(&compiledBox{m: m, ci: models.NewCompiledInfer(m, dev, tensor.F64)})
	return r
}

func (r *compiledReplica) Backend() fw.Backend { return r.m.Load().m.Backend() }

func (r *compiledReplica) Forward(b *fw.Batch) *tensor.Tensor {
	r.mu.Lock()
	for _, ci := range r.retired {
		ci.Close()
	}
	r.retired = nil
	r.mu.Unlock()
	return r.m.Load().ci.Forward(b)
}

func (r *compiledReplica) Device() *device.Device { return r.dev }

// Swap implements Swappable. The new model gets a fresh CompiledInfer whose
// tapes re-record on first use. The old one is retired, not closed: a batch
// already in flight may still be replaying on its tapes. The next Forward
// closes it, returning its buffers and device accounting — by then the
// in-flight batch is done, because the pool hands a replica to one RunBatch
// at a time and its rows are copied out before the replica goes back.
func (r *compiledReplica) Swap(m models.Model) {
	old := r.m.Swap(&compiledBox{m: m, ci: models.NewCompiledInfer(m, r.dev, tensor.F64)})
	r.mu.Lock()
	r.retired = append(r.retired, old.ci)
	r.mu.Unlock()
}
