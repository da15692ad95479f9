package models

import (
	"repro/internal/ag"
	"repro/internal/device"
	"repro/internal/fw"
	"repro/internal/tensor"
)

// Infer runs one forward-only pass over a collated batch and returns the raw
// logits: one row per graph for graph-classification models, one row per
// node for node-classification models. The pass runs in eval mode (dropout
// is the identity, batch norm reads running statistics), so it has no side
// effects on the model and is safe to call concurrently on a shared model —
// the property the serving replica pool relies on. The temporary autograd
// tape draws every op output from the tensor buffer pool and is finished
// before returning, which hands the buffers back and releases the tape's
// device-memory accounting; the returned tensor is a copy the caller owns.
// Pooling changes where a buffer comes from, not one floating-point
// operation: the logits are bit-identical to an unpooled forward.
func Infer(m Model, b *fw.Batch, dev *device.Device) *tensor.Tensor {
	g := ag.New(dev)
	g.EnablePooling()
	defer g.Finish()
	// Copied before the deferred Finish releases (and, under
	// tensor.SetPoolPoison, poisons) the output buffer.
	return m.Forward(g, b, false, nil).Value().Clone()
}
