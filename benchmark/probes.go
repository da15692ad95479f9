package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/ag"
	"repro/internal/ckpt"
	"repro/internal/costmodel"
	"repro/internal/datasets"
	"repro/internal/device"
	"repro/internal/fw"
	"repro/internal/fw/dglb"
	"repro/internal/fw/pygeo"
	"repro/internal/graph"
	"repro/internal/loader"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/optim"
	"repro/internal/rpc"
	"repro/internal/serve"
	"repro/internal/tensor"
	"repro/internal/train"
)

// probeEnv is what the probes draw their inputs from: the workload's corpus
// in its seeded walk order, and the model it serves or trains.
type probeEnv struct {
	data  *datasets.Dataset
	be    fw.Backend
	model models.Model
	order []int
}

// graphs returns n corpus graphs starting at position from of the walk.
func (e probeEnv) graphs(from, n int) []*graph.Graph {
	out := make([]*graph.Graph, n)
	for i := range out {
		out[i] = e.data.Graphs[e.order[(from+i)%len(e.order)]]
	}
	return out
}

func (e probeEnv) indices(from, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = e.order[(from+i)%len(e.order)]
	}
	return out
}

// timeProbe calls fn for about budget, at least three times, and returns
// the median call time.
func timeProbe(budget time.Duration, fn func()) time.Duration {
	var times []time.Duration
	for start := time.Now(); len(times) < 3 || time.Since(start) < budget; {
		t0 := time.Now()
		fn()
		times = append(times, time.Since(t0))
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return times[len(times)/2]
}

// tapeProbeBatches caps the compiled-miss probe: every distinct batch shape
// records a tape of tens of MB that the cache never evicts.
const tapeProbeBatches = 8

// runProbes calls each layer directly, outside any server, and returns the
// P metrics. budget bounds each timed probe.
func runProbes(e probeEnv, budget time.Duration) (map[string]float64, error) {
	m := map[string]float64{}
	dev := device.Default()
	b32 := e.graphs(0, serveMaxBatch)

	// serve: what the handler does before Predict, per corpus body.
	bodies := make([][]byte, len(b32))
	for i, g := range b32 {
		body, err := requestBody(g)
		if err != nil {
			return nil, err
		}
		bodies[i] = body
	}
	var decodeErr error
	m["serve.decode_us"] = us(timeProbe(budget, func() {
		for _, body := range bodies {
			var req serve.PredictRequest
			if err := json.Unmarshal(body, &req); err != nil {
				decodeErr = err
				return
			}
			if _, err := graph.FromEdgeList(req.NumNodes, req.Src, req.Dst, req.X); err != nil {
				decodeErr = err
			}
		}
	})) / float64(len(bodies))
	if decodeErr != nil {
		return nil, fmt.Errorf("serve.decode probe: %w", decodeErr)
	}
	m["graph.validate_us"] = us(timeProbe(budget, func() {
		for _, g := range b32 {
			if err := g.Validate(); err != nil {
				decodeErr = err
			}
		}
	})) / float64(len(b32))
	if decodeErr != nil {
		return nil, fmt.Errorf("graph.validate probe: %w", decodeErr)
	}

	// fw: the same 32 graphs through both frameworks' collation.
	pyg, dgl := fw.Backend(pygeo.New()), fw.Backend(dglb.New())
	m["fw.collate_pyg_us_b32"] = us(timeProbe(budget, func() { pyg.Batch(b32, dev).Release(dev) }))
	m["fw.collate_dgl_us_b32"] = us(timeProbe(budget, func() { dgl.Batch(b32, dev).Release(dev) }))
	batch := e.be.Batch(b32, dev)
	defer batch.Release(dev)
	m["fw.batch_bytes"] = float64(batch.Bytes())

	// models: eager against compiled, on a repeated and on first-seen batches.
	m["models.eager_ms_b32"] = ms(timeProbe(budget, func() { models.Infer(e.model, batch, dev) }))
	ci := models.NewCompiledInfer(e.model, dev, tensor.F64)
	ci.Forward(batch)
	m["models.compiled_hit_ms_b32"] = ms(timeProbe(budget, func() { ci.Forward(batch) }))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tapes := ci.Tapes()
	var misses []float64
	for k := 1; k <= tapeProbeBatches; k++ {
		// One graph fewer each time: a first-seen shape even on a corpus
		// whose graphs all share one.
		fresh := e.be.Batch(e.graphs(k*serveMaxBatch, serveMaxBatch-k), dev)
		t0 := time.Now()
		ci.Forward(fresh)
		misses = append(misses, ms(time.Since(t0)))
		fresh.Release(dev)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	m["models.compiled_miss_ms_b32"] = median(misses)
	m["models.compiled_tapes"] = float64(ci.Tapes())
	if recorded := ci.Tapes() - tapes; recorded > 0 && after.HeapAlloc > before.HeapAlloc {
		m["models.tape_mb"] = float64(after.HeapAlloc-before.HeapAlloc) / (1 << 20) / float64(recorded)
	}
	// ci is dropped to the collector as serve's replicas drop theirs: Close
	// frees the shadows' bytes from the device although Clone never accounted
	// them, and panics on any device but nil.

	dglBatch := dgl.Batch(b32, dev)
	probeTensor(m, batch, dglBatch, budget)
	dglBatch.Release(dev)
	if err := probeRPC(m, e, budget); err != nil {
		return nil, err
	}
	probeTrainStep(m, e, budget)
	if err := probeCkpt(m, e, budget); err != nil {
		return nil, err
	}

	// costmodel: admission's per-group cost once a later change arms it.
	m["costmodel.extract_us_b32"] = us(timeProbe(budget, func() { costmodel.ExtractBatch(b32) }))
	samples := costmodel.Sweep(e.model, e.data.NumFeatures, costmodel.SweepOptions{Samples: 16})
	pred, err := costmodel.Fit(samples, costmodel.FitOptions{Steps: 50})
	if err != nil {
		return nil, fmt.Errorf("costmodel probe: %w", err)
	}
	m["costmodel.predict_batch_us"] = us(timeProbe(budget, func() { pred.PredictBatch(b32) }))
	return m, nil
}

// probeTensor times the kernels a GCN layer is made of, at the sizes a
// 32-graph batch gives them.
func probeTensor(m map[string]float64, batch, dglBatch *fw.Batch, budget time.Duration) {
	// The GCN layer shape at batch 32: [nodes x 64] . [64 x 64].
	const rows, width = 1024, 64
	rng := tensor.NewRNG(1)
	a, w, out := rng.Randn(1, rows, width), rng.Randn(1, width, width), tensor.New(rows, width)
	d := timeProbe(budget, func() { tensor.MatMulInto(out, a, w) })
	m["tensor.matmul_gflops"] = 2 * rows * width * width / d.Seconds() / 1e9

	x := rng.Randn(1, batch.NumNodes, width)
	perEdge := tensor.New(batch.NumEdges(), width)
	perNode := tensor.New(batch.NumNodes, width)
	edgeBytes := float64(2 * 8 * batch.NumEdges() * width) // one row read, one row written per arc
	d = timeProbe(budget, func() { tensor.GatherRowsInto(perEdge, x, batch.Src) })
	m["tensor.gather_gbps"] = edgeBytes / d.Seconds() / 1e9
	d = timeProbe(budget, func() { tensor.ScatterAddRowsInto(perNode, perEdge, batch.Dst) })
	m["tensor.scatter_gbps"] = edgeBytes / d.Seconds() / 1e9
	csr := dglBatch.CSR
	d = timeProbe(budget, func() { tensor.GSpMMSumInto(perNode, x, csr.RowPtr, csr.Col) })
	m["tensor.gspmm_gbps"] = float64(8*(len(csr.Col)+batch.NumNodes)*width) / d.Seconds() / 1e9
}

// probeRPC times the job and row codecs of the fleet's wire hop.
func probeRPC(m map[string]float64, e probeEnv, budget time.Duration) error {
	for _, n := range []int{2, serveMaxBatch} {
		graphs := e.graphs(0, n)
		var buf []byte
		var err error
		enc := timeProbe(budget, func() { buf, err = rpc.AppendJob(buf[:0], obs.TraceContext{}, graphs) })
		if err != nil {
			return fmt.Errorf("rpc.AppendJob probe: %w", err)
		}
		dec := timeProbe(budget, func() { _, _, err = rpc.DecodeJob(buf) })
		if err != nil {
			return fmt.Errorf("rpc.DecodeJob probe: %w", err)
		}
		suffix := fmt.Sprintf("_b%d", n)
		m["rpc.encode_job_us"+suffix] = us(enc)
		m["rpc.decode_job_us"+suffix] = us(dec)
		m["rpc.job_bytes"+suffix] = float64(len(buf))
	}
	row := rpc.Row{Index: 1, Class: 1, Logits: make([]float64, e.data.NumClasses)}
	var buf []byte
	var err error
	enc := timeProbe(budget, func() { buf, err = rpc.AppendRow(buf[:0], row) })
	if err != nil {
		return fmt.Errorf("rpc.AppendRow probe: %w", err)
	}
	dec := timeProbe(budget, func() { _, err = rpc.DecodeRow(buf) })
	if err != nil {
		return fmt.Errorf("rpc.DecodeRow probe: %w", err)
	}
	m["rpc.encode_row_us"], m["rpc.decode_row_us"] = us(enc), us(dec)
	return nil
}

// probeTrainStep hand-runs one training step on a 128-graph batch, each call
// timed, on a fresh copy of the workload's architecture so the served or
// trained weights are left alone.
func probeTrainStep(m map[string]float64, e probeEnv, budget time.Duration) {
	const trainBatch = 128
	dev := device.Default()
	idx := e.indices(0, trainBatch)
	m["loader.collate_ms_pyg"] = ms(timeProbe(budget, func() { loader.Collate(pygeo.New(), e.data, idx, dev).Release(dev) }))
	m["loader.collate_ms_dgl"] = ms(timeProbe(budget, func() { loader.Collate(dglb.New(), e.data, idx, dev).Release(dev) }))

	model := models.New(e.model.Name(), e.be, modelConfig(e.data))
	adam := optim.NewAdam(model.Params(), 1e-3)
	b := loader.Collate(e.be, e.data, idx, dev)
	defer b.Release(dev)
	var forward, backward, step []float64
	for start := time.Now(); len(forward) < 3 || time.Since(start) < budget; {
		g := ag.New(dev)
		t0 := time.Now()
		loss := g.CrossEntropy(model.Forward(g, b, true, nil), b.Labels, nil)
		t1 := time.Now()
		adam.ZeroGrad()
		g.Backward(loss)
		t2 := time.Now()
		adam.Step()
		t3 := time.Now()
		g.Finish()
		forward = append(forward, ms(t1.Sub(t0)))
		backward = append(backward, ms(t2.Sub(t1)))
		step = append(step, ms(t3.Sub(t2)))
	}
	f, bw, st := median(forward), median(backward), median(step)
	m["ag.forward_train_ms"], m["ag.backward_ms"], m["optim.step_ms"] = f, bw, st
	m["train.step_share_forward"] = f / (f + bw + st)
	m["train.step_share_backward"] = bw / (f + bw + st)
	m["train.eval_ms"] = ms(timeProbe(budget, func() { train.EvalGraphAcc(model, e.data, idx, trainBatch, dev) }))
}

// probeCkpt writes and reads the model's state to memory: the reload path.
func probeCkpt(m map[string]float64, e probeEnv, budget time.Duration) error {
	var buf bytes.Buffer
	var err error
	save := timeProbe(budget, func() {
		buf.Reset()
		err = ckpt.Write(&buf, ckpt.ForModel(e.model))
	})
	if err != nil {
		return fmt.Errorf("ckpt.Write probe: %w", err)
	}
	fresh := models.New(e.model.Name(), e.be, modelConfig(e.data))
	load := timeProbe(budget, func() { err = ckpt.Read(bytes.NewReader(buf.Bytes()), ckpt.ForModel(fresh)) })
	if err != nil {
		return fmt.Errorf("ckpt.Read probe: %w", err)
	}
	m["ckpt.save_ms"], m["ckpt.load_ms"], m["ckpt.bytes"] = ms(save), ms(load), float64(buf.Len())
	return nil
}
