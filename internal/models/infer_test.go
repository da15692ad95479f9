package models

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/ag"
	"repro/internal/datasets"
	"repro/internal/device"
	"repro/internal/fw"
	"repro/internal/fw/dglb"
	"repro/internal/fw/pygeo"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// everyModel is New's whole table: the paper's six architectures and the MLP
// baseline.
func everyModel() []string { return append(AllNames(), "MLP") }

// poolStateResult is what one training step and one Infer produce.
type poolStateResult struct {
	trainLogits, logits *tensor.Tensor
	loss                float64
	grads               []*tensor.Tensor
}

// poolStatePass runs one training step (forward, CrossEntropy, Backward) and
// one Infer of m on b, copying every result before its tape's Finish.
func poolStatePass(m Model, b *fw.Batch) poolStateResult {
	g := ag.New(nil)
	logits := m.Forward(g, b, true, nil)
	loss := g.CrossEntropy(logits, b.Labels, nil)
	g.Backward(loss)
	r := poolStateResult{trainLogits: logits.Value().Clone(), loss: loss.Value().Data[0]}
	g.Finish()
	for _, p := range m.Params() {
		r.grads = append(r.grads, p.Grad.Clone())
	}
	r.logits = Infer(m, b, nil)
	return r
}

// TestInferPooledBitIdentical pins the one kind of tape against the pool's
// state: for every model on both backends, a training step and an Infer on a
// drained pool — every buffer fresh from the allocator — match bit for bit
// the same on a warm pool whose released buffers are poisoned (TestMain).
// Each pass gets its own identically seeded model, since a training step
// moves batch-norm statistics. Infer's result is a copy: it keeps its values
// while later passes reuse the buffers the first one handed back.
func TestInferPooledBitIdentical(t *testing.T) {
	for _, be := range []fw.Backend{pygeo.New(), dglb.New()} {
		for _, name := range everyModel() {
			label := name + "/" + be.Name()
			cfg := graphCfg()
			b := tinyBatch(be, 10, 3, cfg.In)

			tensor.DrainPool()
			want := poolStatePass(New(name, be, cfg), b)
			warm := tensor.Pool()
			m := New(name, be, cfg)
			got := poolStatePass(m, b)
			if tensor.Pool().Hits == warm.Hits {
				t.Fatalf("%s: the warm pass drew no buffer from the pool", label)
			}

			assertBitEqual(t, label+" training logits", got.trainLogits, want.trainLogits)
			if math.Float64bits(got.loss) != math.Float64bits(want.loss) {
				t.Fatalf("%s: warm-pool loss %v, drained pool %v", label, got.loss, want.loss)
			}
			for i := range want.grads {
				assertBitEqual(t, label+" "+m.Params()[i].Name+" grad", got.grads[i], want.grads[i])
			}
			assertBitEqual(t, label+" Infer", got.logits, want.logits)

			// The same shape draws exactly the released buffers again; another
			// shape draws from other size classes.
			Infer(m, perturb(b, 7), nil)
			Infer(m, tinyBatch(be, 20, 4, cfg.In), nil)
			assertBitEqual(t, label+" after later passes", got.logits, want.logits)
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

// TestInferSteadyStateUnderGC: the pool's marks roll at every GC cycle, and
// a working set in use on every pass survives the rolls — 100 warm passes
// with a forced collection every ten still miss nothing. Automatic
// collections are off for the test: two cycles back to back with no pass
// between them are an idle window, and the pool rightly evicts after one.
func TestInferSteadyStateUnderGC(t *testing.T) {
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, be := range []fw.Backend{pygeo.New(), dglb.New()} {
		cfg := graphCfg()
		m := New("GAT", be, cfg)
		b := tinyBatch(be, 10, 3, cfg.In)
		for i := 0; i < 3; i++ {
			Infer(m, b, nil)
		}
		before := tensor.Pool()
		for i := 0; i < 100; i++ {
			if i%10 == 0 {
				runtime.GC()
			}
			Infer(m, b, nil)
		}
		after := tensor.Pool()
		if hits, misses := after.Hits-before.Hits, after.Misses-before.Misses; hits == 0 || misses != 0 {
			t.Errorf("GAT/%s: %d hits and %d misses over 100 warm passes with a GC every ten", be.Name(), hits, misses)
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

// fusedOnInferenceTapes names the models whose PyG message passing an
// inference tape runs as one host pass: every caller of AggSum, AggMean or
// AggWeightedSum. GAT and GatedGCN build their messages through GatherSrc and
// ScatterEdgesSum, the MLP passes none, and DGL aggregates with GSpMM, so
// their tapes are the same on both kinds, except GCN/DGL's: its row scale,
// bias and ReLU run inside the GSpMM sum (ag.Epilogue).
var fusedOnInferenceTapes = map[string]bool{"GCN/PyG": true, "GCN/DGL": true, "GIN/PyG": true, "GraphSAGE/PyG": true, "MoNet/PyG": true}

// evalOnTrainingTape is a forward-only pass recorded on a training tape: the
// reference the inference tape must reproduce. It returns a copy of the
// logits and how many buffers the pass drew from the pool.
func evalOnTrainingTape(m Model, b *fw.Batch, dev *device.Device) (*tensor.Tensor, int64) {
	before := tensor.Pool()
	g := ag.New(dev)
	logits := m.Forward(g, b, false, nil).Value().Clone()
	after := tensor.Pool()
	g.Finish()
	return logits, after.Hits + after.Misses - before.Hits - before.Misses
}

// TestInferenceTapeBitIdentical: for every model on both backends, Infer and
// a CompiledInfer record and replay — both on inference tapes — give the
// logits of the same eval forward on a training tape bit for bit, on a warm
// pool whose released buffers are poisoned (TestMain), and charge the device
// the same counted work. The fused models draw fewer pool buffers than the
// training tape; every other model draws exactly as many.
func TestInferenceTapeBitIdentical(t *testing.T) {
	for _, be := range []fw.Backend{pygeo.New(), dglb.New()} {
		for _, name := range everyModel() {
			label := name + "/" + be.Name()
			cfg := graphCfg()
			m := New(name, be, cfg)
			b := tinyBatch(be, 10, 3, cfg.In)
			Infer(m, b, nil) // warm the pool

			dt, di := device.Default(), device.Default()
			want, trainDraws := evalOnTrainingTape(m, b, dt)
			before := tensor.Pool()
			got := Infer(m, b, di)
			after := tensor.Pool()
			assertBitEqual(t, label+" Infer", got, want)
			if a, w := countedWork(di.Stats()), countedWork(dt.Stats()); a != w {
				t.Errorf("%s: Infer charged %+v, the training tape %+v", label, a, w)
			}
			inferDraws := after.Hits + after.Misses - before.Hits - before.Misses
			if fusedOnInferenceTapes[label] && inferDraws >= trainDraws {
				t.Errorf("%s: Infer drew %d buffers, the training tape %d: the messages were materialised", label, inferDraws, trainDraws)
			}
			if !fusedOnInferenceTapes[label] && inferDraws != trainDraws {
				t.Errorf("%s: Infer drew %d buffers, the training tape %d: an unfused model's tape changed", label, inferDraws, trainDraws)
			}

			ci := NewCompiledInfer(m, nil, tensor.F64)
			assertBitEqual(t, label+" compiled record", ci.Forward(b), want)
			for _, seed := range []uint64{21, 22} {
				fresh := perturb(b, seed)
				want, _ := evalOnTrainingTape(m, fresh, nil)
				assertBitEqual(t, label+" compiled replay", ci.Forward(fresh), want)
			}
			ci.Close()
		}
	}
}

// countedWork is a device snapshot without ActiveTime, the host wall clock.
func countedWork(s device.Stats) device.Stats {
	s.ActiveTime = 0
	return s
}
