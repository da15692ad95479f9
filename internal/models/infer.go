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
// tape is finished before returning, which hands its buffers back to the
// tensor pool and releases its device-memory accounting; the returned tensor
// is a copy the caller owns. Together with (*CompiledInfer).Forward this is
// every eval-mode forward pass in the tree: validation, test and prediction
// passes in internal/train call it too.
func Infer(m Model, b *fw.Batch, dev *device.Device) *tensor.Tensor {
	g := ag.NewInference(dev)
	defer g.Finish()
	// Copied before the deferred Finish releases (and, under
	// tensor.SetPoolPoison, poisons) the output buffer.
	return m.Forward(g, b, false, nil).Value().Clone()
}
