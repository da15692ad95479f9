package models

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/fw"
	"repro/internal/fw/dglb"
	"repro/internal/fw/pygeo"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// perturb writes fresh feature data into a cloned batch so it keeps the
// original's shape signature but not its payload.
func perturb(b *fw.Batch, seed uint64) *fw.Batch {
	c := b.Clone()
	rng := tensor.NewRNG(seed)
	for i := range c.X.Data {
		c.X.Data[i] = rng.NormFloat64()
	}
	if c.EdgeAttr != nil {
		for i := range c.EdgeAttr.Data {
			c.EdgeAttr.Data[i] = rng.NormFloat64()
		}
	}
	return c
}

// TestCompiledInferMatchesEager pins the serving tentpole: for every model on
// both backends, a compiled tape replayed over fresh same-shape data produces
// bit-for-bit the logits the eager path computes, and unseen shapes record
// new tapes.
func TestCompiledInferMatchesEager(t *testing.T) {
	for _, be := range []fw.Backend{pygeo.New(), dglb.New()} {
		for _, name := range AllNames() {
			cfg := graphCfg()
			m := New(name, be, cfg)
			ci := NewCompiledInfer(m, nil, tensor.F64)

			b1 := tinyBatch(be, 10, 3, cfg.In)
			got := ci.Forward(b1) // records
			want := Infer(m, b1, nil)
			assertBitEqual(t, name+"/"+be.Name()+" record", got, want)

			b2 := perturb(b1, 77) // same shape signature, fresh payload
			got2raw := ci.Forward(b2)
			got2 := got2raw.Clone() // tape owns the buffer; next Forward overwrites
			want2 := Infer(m, b2, nil)
			assertBitEqual(t, name+"/"+be.Name()+" replay", got2, want2)
			if ci.Tapes() != 1 {
				t.Errorf("%s/%s: %d tapes after same-shape batches, want 1", name, be.Name(), ci.Tapes())
			}

			b3 := tinyBatch(be, 20, 4, cfg.In) // different shape
			got3 := ci.Forward(b3).Clone()
			want3 := Infer(m, b3, nil)
			assertBitEqual(t, name+"/"+be.Name()+" reshape", got3, want3)
			if ci.Tapes() != 2 {
				t.Errorf("%s/%s: %d tapes after a new shape, want 2", name, be.Name(), ci.Tapes())
			}

			// Replaying the first shape again still works after interleaving.
			got4 := ci.Forward(perturb(b1, 99))
			want4 := Infer(m, perturb(b1, 99), nil)
			assertBitEqual(t, name+"/"+be.Name()+" interleave", got4, want4)
			ci.Close()
		}
	}
}

// rewire returns a payload-perturbed clone of b with the same shape
// signature but other arcs: every arc reversed and the arc list shuffled,
// with in-degrees, edge attributes and (on DGL) the CSR following.
func rewire(b *fw.Batch, seed uint64) *fw.Batch {
	c := perturb(b, seed)
	perm := tensor.NewRNG(seed).Perm(c.NumEdges())
	for k, p := range perm {
		c.Src[k], c.Dst[k] = b.Dst[p], b.Src[p]
		if c.EdgeAttr != nil {
			fe := c.EdgeAttr.Cols()
			copy(c.EdgeAttr.Data[k*fe:(k+1)*fe], b.EdgeAttr.Data[p*fe:(p+1)*fe])
		}
	}
	clear(c.InDeg)
	for _, d := range c.Dst {
		c.InDeg[d]++
	}
	if c.CSR != nil {
		c.CSR.Fill(c.Src, c.Dst)
	}
	return c
}

// TestCompiledReplayFollowsNewArcs: a compiled tape replayed on a batch of
// the same shape whose arcs differ — reversed and in another order — gives
// the logits eager Infer gives on that batch, bit for bit. PyG's inference
// aggregation reads the batch's by-destination CSR, which CopyDataFrom must
// re-sort from the new arcs; a CSR kept from the recorded batch would sum
// the wrong rows, or the right rows in the wrong order.
func TestCompiledReplayFollowsNewArcs(t *testing.T) {
	for _, be := range []fw.Backend{pygeo.New(), dglb.New()} {
		for _, name := range AllNames() {
			cfg := graphCfg()
			m := New(name, be, cfg)
			ci := NewCompiledInfer(m, nil, tensor.F64)
			b1 := tinyBatch(be, 10, 3, cfg.In)
			ci.Forward(b1) // records
			for r, seed := range []uint64{31, 32} {
				b2 := rewire(b1, seed)
				if err := b2.Invariants(); err != nil {
					t.Fatalf("%s/%s: rewired batch: %v", name, be.Name(), err)
				}
				got := ci.Forward(b2).Clone()
				want := Infer(m, b2, nil)
				assertBitEqual(t, fmt.Sprintf("%s/%s rewired replay %d", name, be.Name(), r+1), got, want)
			}
			if ci.Tapes() != 1 {
				t.Errorf("%s/%s: %d tapes after same-shape batches, want 1", name, be.Name(), ci.Tapes())
			}
			ci.Close()
		}
	}
}

func assertBitEqual(t *testing.T, label string, got, want *tensor.Tensor) {
	t.Helper()
	if got.Rows() != want.Rows() || got.Cols() != want.Cols() {
		t.Fatalf("%s: shape %v vs %v", label, got.Shape(), want.Shape())
	}
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: logits[%d] = %v, eager %v (not bit-identical)", label, i, got.Data[i], want.Data[i])
		}
	}
}

// TestCompiledInferZeroAllocs is the serve-side tentpole acceptance test:
// once a shape's tape is warm, answering a /predict batch — copy payload in,
// replay, read logits — performs zero heap allocations, at one worker and
// fanned out over two and seven. 200 graphs (about 900 nodes) put the
// products past their grain, and the test checks that chunks were handed to
// pool workers.
func TestCompiledInferZeroAllocs(t *testing.T) {
	if tensor.RaceEnabled {
		t.Skip("race instrumentation allocates; AllocsPerRun is meaningless under -race")
	}
	poison := tensor.SetPoolPoison(true)
	defer tensor.SetPoolPoison(poison)
	for _, workers := range []int{1, 2, 7} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			defer parallel.SetWorkers(parallel.SetWorkers(workers))
			be := pygeo.New()
			cfg := graphCfg()
			m := New("GCN", be, cfg)
			ci := NewCompiledInfer(m, nil, tensor.F64)
			defer ci.Close()

			b := tinyBatch(be, 40, 200, cfg.In)
			ci.Forward(b)          // record
			fresh := perturb(b, 5) // the "incoming request" payload
			var out *tensor.Tensor
			dispatched := parallel.ChunksDispatched()
			allocs := testing.AllocsPerRun(50, func() {
				out = ci.Forward(fresh)
			})
			if allocs != 0 {
				t.Errorf("steady-state compiled /predict batch = %v allocs/op, want 0", allocs)
			}
			if moved := parallel.ChunksDispatched() != dispatched; moved != (workers > 1) {
				t.Errorf("chunks handed to pool workers: %v, want %v", moved, workers > 1)
			}
			for _, v := range out.Data {
				if math.IsNaN(v) {
					t.Fatal("compiled logits went NaN under pool poisoning: a kernel read a released buffer")
				}
			}
		})
	}
}
