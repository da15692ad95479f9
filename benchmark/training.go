package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/datasets"
	"repro/internal/device"
	"repro/internal/fw"
	"repro/internal/fw/dglb"
	"repro/internal/fw/pygeo"
	"repro/internal/models"
	"repro/internal/tensor"
	"repro/internal/train"
)

// trainConfig is one (model, framework, data) configuration the training
// workload runs an epoch of per round.
type trainConfig struct {
	key   string // suffix of the train.epoch_s_* metric
	arch  string
	be    func() fw.Backend
	gat   bool // trains on the small GAT slice
	model models.Model
	dev   *device.Device
	first float64 // train loss of the first round
	last  float64
	times []float64 // wall seconds per call
}

// gatSliceGraphs is how many ENZYMES graphs the GAT configuration trains on.
// GAT costs an order of magnitude more per graph than GCN; the slice keeps
// its epoch comparable to the GCN ones so no configuration owns the round.
const gatSliceGraphs = 12

// training is the set-up train_rounds workload. One round is one
// train.TrainGraphFold call (one epoch, then the fold's test evaluation) for
// each configuration; models persist across rounds.
type training struct {
	seed     uint64
	data     *datasets.Dataset
	gatData  *datasets.Dataset
	split    datasets.CVSplit
	gatSplit datasets.CVSplit
	configs  []*trainConfig
	rec      *recorder
}

// firstSplit is the first round of the paper's 10-fold protocol.
func firstSplit(seed uint64, d *datasets.Dataset) datasets.CVSplit {
	folds := datasets.StratifiedKFold(tensor.NewRNG(seed), d.GraphLabels(), 10)
	return datasets.CrossValidationSplits(folds)[0]
}

func setupTraining(seed uint64, traced bool) (*training, error) {
	t := &training{seed: seed}
	t.data = datasets.Enzymes(datasets.Options{Seed: corpusSeed, Scale: 0.5})
	t.split = firstSplit(seed, t.data)
	t.gatData = &datasets.Dataset{
		Name: t.data.Name, Graphs: t.data.Graphs[:gatSliceGraphs],
		NumClasses: t.data.NumClasses, NumFeatures: t.data.NumFeatures,
	}
	// A dozen graphs cannot fill ten stratified folds of six classes; the slice
	// trains on all but its last four graphs and splits those between
	// validation and test.
	for i := 0; i < gatSliceGraphs; i++ {
		switch {
		case i < gatSliceGraphs-4:
			t.gatSplit.Train = append(t.gatSplit.Train, i)
		case i < gatSliceGraphs-2:
			t.gatSplit.Val = append(t.gatSplit.Val, i)
		default:
			t.gatSplit.Test = append(t.gatSplit.Test, i)
		}
	}
	t.configs = []*trainConfig{
		{key: "gcn_pyg", arch: "GCN", be: func() fw.Backend { return pygeo.New() }},
		{key: "gcn_dgl", arch: "GCN", be: func() fw.Backend { return dglb.New() }},
		{key: "gat_pyg", arch: "GAT", be: func() fw.Backend { return pygeo.New() }, gat: true},
	}
	if traced {
		rec, err := newRecorder(nil)
		if err != nil {
			return nil, err
		}
		t.rec = rec
	}
	for _, c := range t.configs {
		c.model = models.New(c.arch, c.be(), modelConfig(t.data))
		if traced {
			c.model = traceModel(c.model, t.rec)
		}
		c.dev = device.Default()
	}
	// One untimed round: first-use costs (worker pool start, tensor pool
	// fill) belong to set-up, not to the first timed round.
	if _, err := t.round(newMeter()); err != nil {
		return nil, err
	}
	for _, c := range t.configs {
		c.times = nil
	}
	return t, nil
}

// round runs one epoch of every configuration, returns the round as one
// sample, and marks the meter at its end.
func (t *training) round(m *meter) (sample, error) {
	begin := time.Now()
	for _, c := range t.configs {
		d, split := t.data, t.split
		if c.gat {
			d, split = t.gatData, t.gatSplit
		}
		req := -1
		if t.rec != nil {
			req = t.rec.begin(spanRequest, nil)
			t.rec.current.Store(int64(req) + 1)
		}
		start := time.Now()
		res := train.TrainGraphFold(c.model, d, split, train.GraphOptions{
			BatchSize: 128, MaxEpochs: 1, Device: c.dev, Seed: t.seed,
		})
		c.times = append(c.times, time.Since(start).Seconds())
		if t.rec != nil {
			t.rec.current.Store(0)
			t.rec.end(req)
		}
		loss := res.Epochs[0].TrainLoss
		if math.IsNaN(loss) || math.IsInf(loss, 0) {
			return sample{}, fmt.Errorf("%s: non-finite train loss %v", c.key, loss)
		}
		if len(c.times) == 1 {
			c.first = loss
		}
		c.last = loss
	}
	// The repo's cross-backend equivalence: the same GCN from the same seed
	// sees the same loss under both frameworks.
	pyg, dgl := t.configs[0].last, t.configs[1].last
	smp := sample{start: begin.Sub(m.start), lat: time.Since(begin), ok: true}
	if math.Abs(pyg-dgl) > 1e-9*math.Max(math.Abs(pyg), math.Abs(dgl)) {
		smp.ok, smp.lat = false, failLatency
	} else {
		m.ok.Add(1)
	}
	m.mark()
	return smp, nil
}

func (t *training) run(window time.Duration) runResult {
	res := runResult{inflightMax: 1, extra: map[string]float64{}}
	m := newMeter()
	for time.Since(m.start) < window {
		smp, err := t.round(m)
		if err != nil {
			res.err = err
			return res
		}
		res.samples = append(res.samples, smp)
	}
	res.marks = m.marks
	for _, c := range t.configs {
		res.extra["train.epoch_s_"+c.key] = median(c.times)
		if len(c.times) > 1 && !(c.last < c.first) {
			res.err = fmt.Errorf("%s: train loss did not fall over %d rounds (%.6f -> %.6f)", c.key, len(c.times), c.first, c.last)
		}
	}
	return res
}

func (t *training) check() error { return nil }

func (t *training) close() {}

func (t *training) counters() counters {
	c := readProcessCounters()
	for _, cfg := range t.configs {
		ds := cfg.dev.Stats()
		c.kernels += ds.Kernels
		c.flops += ds.Flops
		c.bytesMoved += ds.BytesMoved
	}
	return c
}

func (t *training) probeEnv() probeEnv {
	m := t.configs[0].model
	if tm, ok := m.(*tracedModel); ok {
		m = tm.Model
	}
	return probeEnv{data: t.data, be: m.Backend(), model: m, order: walkOrder(t.seed, len(t.data.Graphs))}
}

func (t *training) recorder() *recorder { return t.rec }

// sloLimit is zero: a training round has no latency limit.
func (t *training) sloLimit() time.Duration { return 0 }
