package ag

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// panicMessage runs f and returns what it panicked with ("" if it did not).
func panicMessage(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

func expectPanicWith(t *testing.T, what, want string, f func()) {
	t.Helper()
	if msg := panicMessage(f); !strings.Contains(msg, want) {
		t.Errorf("%s: panic %q, want one containing %q", what, msg, want)
	}
}

// TestInferenceTapeRefusesGradients: an inference tape records no backward
// pass, so Backward and BeginStep panic naming the tape kind, and a replay
// after Finish names the kind it was asked of.
func TestInferenceTapeRefusesGradients(t *testing.T) {
	p := NewParameter("w", tensor.Ones(2, 2))
	record := func(g *Graph) *Node { return g.MeanAll(g.MatMul(g.Input(tensor.Ones(3, 2)), g.Param(p))) }

	g := NewInference(nil)
	loss := record(g)
	expectPanicWith(t, "Backward", "Backward on an inference tape", func() { g.Backward(loss) })
	expectPanicWith(t, "BeginStep", "BeginStep on an inference tape", func() { g.BeginStep() })
	g.ReplayForward() // forward replay is what the tape is for
	g.Finish()
	expectPanicWith(t, "ReplayForward after Finish", "ReplayForward after Finish of this inference tape", g.ReplayForward)

	tr := New(nil)
	record(tr)
	tr.Finish()
	expectPanicWith(t, "training ReplayForward after Finish", "ReplayForward after Finish of this training tape", tr.ReplayForward)
}

// gsFixture is one message-passing input: n nodes, arcs src→dst, features x
// and optional per-arc weights w ([E,1], as the models pass them). It hands
// an inference tape its arcs grouped by destination, as fw.Batch does.
type gsFixture struct {
	x, w     *tensor.Tensor
	src, dst []int
	n        int
	csr      *graph.CSR // built by ByDst on an inference tape's first run
}

func newGSFixture(seed uint64, n, e, f int, weighted bool) *gsFixture {
	rng := tensor.NewRNG(seed)
	fx := &gsFixture{x: rng.Randn(1, n, f), n: n}
	for k := 0; k < e; k++ {
		fx.src = append(fx.src, rng.IntN(n))
		fx.dst = append(fx.dst, rng.IntN(n))
	}
	if weighted {
		fx.w = rng.Randn(1, e, 1)
	}
	return fx
}

func (fx *gsFixture) record(g *Graph) *Node {
	var w *Node
	if fx.w != nil {
		w = g.Input(fx.w)
	}
	return g.GatherScatter(g.Input(fx.x), w, fx.src, fx.dst, fx.n, fx)
}

// ByDst groups the fixture's arcs by destination with graph.BuildCSR, once.
func (fx *gsFixture) ByDst() (rowptr, col, eid []int) {
	if fx.csr == nil {
		fx.csr = graph.BuildCSR(fx.n, fx.src, fx.dst)
	}
	return fx.csr.RowPtr, fx.csr.Col, fx.csr.EID
}

// countedWork is a device snapshot without ActiveTime, the host wall clock.
func countedWork(s device.Stats) device.Stats {
	s.ActiveTime = 0
	return s
}

// TestGatherScatterKindsAgree: on an inference tape GatherScatter runs one
// host pass, and it must give a training tape's Gather → MulBroadcastCol →
// ScatterAdd chain bit for bit, with the device charged the same kernels,
// work and memory, on the recording and on replays over new data — while
// drawing fewer buffers from the (poisoned) pool, since it never
// materialises the messages.
func TestGatherScatterKindsAgree(t *testing.T) {
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	for _, weighted := range []bool{false, true} {
		for _, size := range [][3]int{{9, 31, 5}, {120, 3001, 33}} {
			for _, workers := range []int{1, 3} {
				parallel.SetWorkers(workers)
				label := fmt.Sprintf("weighted=%v n=%d e=%d workers=%d", weighted, size[0], size[1], workers)
				fx := newGSFixture(uint64(size[1]), size[0], size[1], size[2], weighted)
				dt, di := device.Default(), device.Default()
				tr, inf := New(dt), NewInference(di)

				p0 := tensor.Pool()
				want := fx.record(tr)
				p1 := tensor.Pool()
				got := fx.record(inf)
				p2 := tensor.Pool()
				drawn := func(a, b tensor.PoolStats) int64 { return b.Hits + b.Misses - a.Hits - a.Misses }
				if dtr, dinf := drawn(p0, p1), drawn(p1, p2); dinf >= dtr {
					t.Errorf("%s: the inference tape drew %d buffers, the training tape %d", label, dinf, dtr)
				}

				charged := func(stage string) {
					t.Helper()
					if a, b := countedWork(di.Stats()), countedWork(dt.Stats()); a != b {
						t.Errorf("%s %s: inference tape charged %+v, training tape %+v", label, stage, a, b)
					}
				}
				check := func(stage string) {
					t.Helper()
					assertBits(t, label+" "+stage, got.Value(), want.Value())
					charged(stage)
				}
				check("record")
				rng := tensor.NewRNG(5)
				for r := 0; r < 2; r++ {
					for i := range fx.x.Data {
						fx.x.Data[i] = rng.NormFloat64()
					}
					if fx.w != nil {
						for i := range fx.w.Data {
							fx.w.Data[i] = rng.NormFloat64()
						}
					}
					tr.ReplayForward()
					inf.ReplayForward()
					check(fmt.Sprintf("replay %d", r+1))
				}
				tr.Finish()
				inf.Finish()
				charged("finish") // the messages' bytes are freed with the rest
			}
		}
	}
}

func assertBits(t *testing.T, label string, got, want *tensor.Tensor) {
	t.Helper()
	if !tensor.SameShape(got, want) {
		t.Fatalf("%s: shape %v, want %v", label, got.Shape(), want.Shape())
	}
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: [%d] = %v, want %v", label, i, got.Data[i], want.Data[i])
		}
	}
}

// TestGatherScatterSpecialValuesAgree: an inference tape's destination-row
// aggregation over graph.BuildCSR's rows equals the training chain bit for
// bit — signed zeros, infinities and subnormals included, NaN where the
// chain has NaN — when x and w carry those values, on unsorted arcs with
// duplicates, self-loops and destinations no arc names.
func TestGatherScatterSpecialValuesAgree(t *testing.T) {
	negZero := math.Copysign(0, -1)
	special := []float64{0, negZero, math.NaN(), math.Inf(1), math.Inf(-1), 5e-324, -1e308, 1}
	for _, weighted := range []bool{false, true} {
		fx := newGSFixture(3, 11, 60, 9, weighted)
		fx.src = append(fx.src, 4, 4, 7, fx.src[0]) // duplicates and self-loops
		fx.dst = append(fx.dst, 4, 4, 7, fx.dst[0])
		for i := range fx.dst {
			fx.dst[i] %= 9 // rows 9 and 10 receive nothing
		}
		for i := range fx.x.Data {
			if i%3 == 0 {
				fx.x.Data[i] = special[(i/3)%len(special)]
			}
		}
		if weighted {
			fx.w = tensor.NewRNG(4).Randn(1, len(fx.src), 1)
			for i := range fx.w.Data {
				if i%4 == 0 {
					fx.w.Data[i] = special[(i/4)%len(special)]
				}
			}
		}
		tr, inf := New(nil), NewInference(nil)
		want, got := fx.record(tr).Value(), fx.record(inf).Value()
		label := fmt.Sprintf("weighted=%v", weighted)
		nans := 0
		for i, w := range want.Data {
			g := got.Data[i]
			if math.IsNaN(w) {
				// When two NaNs with different payloads meet in an add,
				// IEEE 754 leaves the payload open, and the compiler may
				// order an add's operands either way (a -race build does).
				// A NaN must stay a NaN; its payload is not compared.
				nans++
				if !math.IsNaN(g) {
					t.Fatalf("%s: [%d] = %v, want NaN", label, i, g)
				}
			} else if math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s: [%d] = %v (%#x), want %v (%#x)", label, i, g, math.Float64bits(g), w, math.Float64bits(w))
			}
		}
		if nans == 0 || nans == len(want.Data) {
			t.Fatalf("%s: %d of %d outputs NaN; the inputs no longer mix NaN with other values", label, nans, len(want.Data))
		}
		tr.Finish()
		inf.Finish()
	}
}

// TestGatherScatterIndexRange: an arc naming a node outside the graph panics
// with GatherRows' or ScatterAddRows' message on either kind of tape.
func TestGatherScatterIndexRange(t *testing.T) {
	for _, tape := range []struct {
		kind string
		new  func(*device.Device) *Graph
	}{{"training", New}, {"inference", NewInference}} {
		for _, weighted := range []bool{false, true} {
			fx := newGSFixture(1, 4, 3, 2, weighted)
			bad := *fx
			bad.src = []int{0, 4, 1}
			expectPanicWith(t, tape.kind+" source", "GatherRows index 4 out of range [0,4)", func() { bad.record(tape.new(nil)) })
			bad = *fx
			bad.dst = []int{0, 1, -1}
			expectPanicWith(t, tape.kind+" destination", "ScatterAddRows index -1 out of range [0,4)", func() { bad.record(tape.new(nil)) })
		}
	}
}

// TestEpilogueKindsAgree: Epilogue after GatherScatter (PyG) or GSpMMSum
// (DGL) gives a training tape's ScaleRows → AddBias → ReLU chain bit for
// bit on an inference tape, with the device charged the same kernels, work
// and memory, on the recording and on replays over new features and
// scales. Fused, the inference tape draws fewer pool buffers. When another
// op follows the aggregation, the inference tape records the chain too.
func TestEpilogueKindsAgree(t *testing.T) {
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	for _, c := range []struct {
		name        string
		dgl, scaled bool
		relu, after bool
	}{
		{"PyG bias ReLU", false, false, true, false},
		{"PyG bias", false, false, false, false},
		{"DGL scale bias ReLU", true, true, true, false},
		{"DGL scale bias", true, true, false, false},
		{"PyG bias ReLU after another op", false, false, true, true},
		{"DGL scale bias ReLU after another op", true, true, true, true},
	} {
		for _, workers := range []int{1, 3} {
			parallel.SetWorkers(workers)
			label := fmt.Sprintf("%s workers=%d", c.name, workers)
			fx := newGSFixture(7, 120, 3001, 33, !c.dgl)
			rng := tensor.NewRNG(8)
			bias := NewParameter("b", rng.Randn(1, 33))
			scale := rng.Randn(1, 120)
			var sc *tensor.Tensor
			if c.scaled {
				sc = scale
			}
			record := func(g *Graph) *Node {
				var agg *Node
				if c.dgl {
					rowptr, col, _ := fx.ByDst()
					agg = g.GSpMMSum(g.Input(fx.x), rowptr, col)
				} else {
					agg = fx.record(g)
				}
				if c.after {
					g.Square(agg)
				}
				return g.Epilogue(agg, sc, g.Param(bias), c.relu)
			}
			dt, di := device.Default(), device.Default()
			tr, inf := New(dt), NewInference(di)
			p0 := tensor.Pool()
			want := record(tr)
			p1 := tensor.Pool()
			got := record(inf)
			p2 := tensor.Pool()
			drawn := func(a, b tensor.PoolStats) int64 { return b.Hits + b.Misses - a.Hits - a.Misses }
			if dtr, dinf := drawn(p0, p1), drawn(p1, p2); !c.after && dinf >= dtr {
				t.Errorf("%s: the inference tape drew %d buffers, the training tape %d", label, dinf, dtr)
			}
			check := func(stage string) {
				t.Helper()
				assertBits(t, label+" "+stage, got.Value(), want.Value())
				if a, b := countedWork(di.Stats()), countedWork(dt.Stats()); a != b {
					t.Errorf("%s %s: inference tape charged %+v, training tape %+v", label, stage, a, b)
				}
			}
			check("record")
			for r := 0; r < 2; r++ {
				for i := range fx.x.Data {
					fx.x.Data[i] = rng.NormFloat64()
				}
				for i := range scale.Data {
					scale.Data[i] = rng.NormFloat64()
				}
				tr.ReplayForward()
				inf.ReplayForward()
				check(fmt.Sprintf("replay %d", r+1))
			}
			tr.Finish()
			inf.Finish()
		}
	}
}
