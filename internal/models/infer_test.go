package models

import (
	"runtime"
	"testing"

	"repro/internal/ag"
	"repro/internal/datasets"
	"repro/internal/fw"
	"repro/internal/fw/dglb"
	"repro/internal/fw/pygeo"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// everyModel is New's whole table: the paper's six architectures and the MLP
// baseline.
func everyModel() []string { return append(AllNames(), "MLP") }

// TestInferPooledBitIdentical pins the eager path's move onto pooled buffers:
// for every model on both backends, with released buffers poisoned (TestMain),
// Infer's logits are bit-for-bit those of an unpooled tape, and the returned
// tensor is a copy — it keeps its values while later passes reuse the buffers
// the first one handed back.
func TestInferPooledBitIdentical(t *testing.T) {
	for _, be := range []fw.Backend{pygeo.New(), dglb.New()} {
		for _, name := range everyModel() {
			label := name + "/" + be.Name()
			cfg := graphCfg()
			m := New(name, be, cfg)
			b := tinyBatch(be, 10, 3, cfg.In)

			g := ag.New(nil)
			want := m.Forward(g, b, false, nil).Value().Clone()
			g.Finish()

			got := Infer(m, b, nil)
			assertBitEqual(t, label+" pooled", got, want)

			// The same shape draws exactly the released buffers again; another
			// shape draws from other size classes.
			Infer(m, perturb(b, 7), nil)
			Infer(m, tinyBatch(be, 20, 4, cfg.In), nil)
			assertBitEqual(t, label+" after later passes", got, want)
		}
	}
}

// TestInferPooledSteadyState holds the pool to its promise on the eager path:
// once a batch shape has been seen, further passes over it are served from
// the free lists alone.
func TestInferPooledSteadyState(t *testing.T) {
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	for _, be := range []fw.Backend{pygeo.New(), dglb.New()} {
		for _, name := range everyModel() {
			cfg := graphCfg()
			m := New(name, be, cfg)
			b := tinyBatch(be, 10, 3, cfg.In)
			for i := 0; i < 3; i++ {
				Infer(m, b, nil)
			}
			before := tensor.Pool()
			for i := 0; i < 100; i++ {
				Infer(m, b, nil)
			}
			after := tensor.Pool()
			hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
			if hits == 0 || misses != 0 {
				t.Errorf("%s/%s: %d pool hits and %d misses over 100 warm passes, want every buffer from the free lists",
					name, be.Name(), hits, misses)
			}
		}
	}
}

// inferAllocBound is what one warm eager pass over a 2-graph ENZYMES batch may
// allocate at gnnserve's model size. What is left is tape nodes, closures and
// the logits copy, 14 KB; the unpooled pass allocated every op output too,
// 2.7 MB a call.
const inferAllocBound = 64 << 10

// TestInferPooledAllocBound is the allocation side of the same change, on
// the kind of batch http_small serves: bytes allocated per call stay under a
// bound the heap-allocating pass exceeded forty times over.
func TestInferPooledAllocBound(t *testing.T) {
	if tensor.RaceEnabled {
		t.Skip("race instrumentation allocates")
	}
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	d := datasets.Enzymes(datasets.Options{Seed: 1, Scale: 0.05})
	be := pygeo.New()
	m := New("GCN", be, Config{
		Task: GraphClassification, In: d.NumFeatures, Hidden: 64, Out: 64,
		Classes: d.NumClasses, Layers: 4, Seed: 1,
	})
	b := be.Batch(d.Graphs[:2], nil)
	for i := 0; i < 3; i++ {
		Infer(m, b, nil)
	}
	const calls = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		Infer(m, b, nil)
	}
	runtime.ReadMemStats(&after)
	perCall := (after.TotalAlloc - before.TotalAlloc) / calls
	t.Logf("%d bytes allocated per Infer call", perCall)
	if perCall > inferAllocBound {
		t.Errorf("Infer allocates %d bytes a call on a 2-graph ENZYMES batch, bound %d", perCall, inferAllocBound)
	}
}
