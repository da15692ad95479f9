package models

import (
	"repro/internal/ag"
	"repro/internal/device"
	"repro/internal/fw"
	"repro/internal/tensor"
)

// CompiledInfer is a forward-only inference engine that records each batch
// shape's autograd tape once and replays it for every later batch of the
// same shape. Recording clones the batch into a long-lived shadow whose
// buffers the tape captures; replay copies the incoming batch's payload into
// those buffers, runs the registered constant-refresh hooks, and re-executes
// the recorded kernels in place — the steady state performs zero heap
// allocations.
//
// CompiledInfer is not safe for concurrent use; the serving layer binds one
// instance to one worker goroutine, matching the Replica contract.
type CompiledInfer struct {
	m     Model
	dev   *device.Device
	tapes map[string]*compiledTape
	sig   []byte // scratch for allocation-free tape lookup
}

type compiledTape struct {
	g      *ag.Graph
	shadow *fw.Batch
	out    *ag.Node
}

// NewCompiledInfer wraps m for compiled serving on dev. tensor.F64 is the
// only precision there is; the model's weights are read, never copied.
func NewCompiledInfer(m Model, dev *device.Device, _ tensor.DType) *CompiledInfer {
	return &CompiledInfer{m: m, dev: dev, tapes: make(map[string]*compiledTape)}
}

// Tapes returns the number of recorded shape signatures.
func (c *CompiledInfer) Tapes() int { return len(c.tapes) }

// Forward computes logits for b: a recorded tape replays in place; an unseen
// shape records a new tape first. The returned tensor is owned by the tape
// and overwritten by the next same-shape call — read or copy it before then.
func (c *CompiledInfer) Forward(b *fw.Batch) *tensor.Tensor {
	c.sig = b.AppendShapeSig(c.sig[:0])
	// Indexing the map with string(c.sig) converts without allocating.
	if t, ok := c.tapes[string(c.sig)]; ok {
		t.shadow.CopyDataFrom(b)
		t.g.ReplayForward()
		return t.out.Value()
	}
	// The shadow is a device-resident copy of the batch for the tape's
	// lifetime; Close's Release frees it.
	shadow := b.Clone()
	c.dev.Alloc(shadow.Bytes())
	g := ag.NewInference(c.dev)
	out := c.m.Forward(g, shadow, false, nil)
	c.tapes[string(c.sig)] = &compiledTape{g: g, shadow: shadow, out: out}
	return out.Value()
}

// Close finishes every recorded tape, returning pooled buffers and releasing
// device-memory accounting. The CompiledInfer must not be used afterwards.
func (c *CompiledInfer) Close() {
	for _, t := range c.tapes {
		t.g.Finish()
		t.shadow.Release(c.dev)
	}
	c.tapes = nil
}
