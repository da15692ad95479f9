package costmodel

import (
	"repro/internal/device"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/tensor"
)

// SweepOptions configures a generator sweep.
type SweepOptions struct {
	// Samples is how many (batch, latency) measurements to take (default 96).
	Samples int
	// Seed drives every random draw in the sweep (default 1). The sweep is
	// fully deterministic: same seed, same model, bit-identical samples.
	Seed uint64
	// MaxBatch is the largest graph count coalesced into one sample's batch
	// (default 8) — the sweep covers multi-graph unions because that is what
	// admission control predicts over.
	MaxBatch int
	// MinNodes/MaxNodes bound per-graph sizes (defaults 8 / 120).
	MinNodes, MaxNodes int
	// Cost is the simulated accelerator's cost model; the zero value means
	// device.RTX2080Ti(), the paper's GPU.
	Cost device.CostModel
}

func (o *SweepOptions) defaults() {
	if o.Samples <= 0 {
		o.Samples = 96
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 8
	}
	if o.MinNodes <= 0 {
		o.MinNodes = 8
	}
	if o.MaxNodes <= o.MinNodes {
		o.MaxNodes = o.MinNodes + 112
	}
	if o.Cost == (device.CostModel{}) {
		o.Cost = device.RTX2080Ti()
	}
}

// Sweep measures m's forward latency across the synthetic topology families
// (Erdős–Rényi, planted partition, k-NN geometric, preferential attachment),
// graph sizes and batch sizes, and returns one Sample per measurement. The
// latency is the simulated device's per-kernel time for the forward pass
// alone — collation runs before the measurement window — which is exactly
// the quantity the admission controller needs to predict. numFeatures is the
// node-feature width the model was built for.
func Sweep(m models.Model, numFeatures int, opt SweepOptions) []Sample {
	opt.defaults()
	rng := tensor.NewRNG(opt.Seed)
	be := m.Backend()
	dev := device.New("costmodel-sweep", opt.Cost)
	samples := make([]Sample, 0, opt.Samples)
	for i := 0; i < opt.Samples; i++ {
		k := 1 + rng.IntN(opt.MaxBatch)
		graphs := make([]*graph.Graph, k)
		for j := range graphs {
			graphs[j] = sweepGraph(rng, opt, numFeatures)
		}
		b := be.Batch(graphs, dev)
		dev.ResetTime()
		models.Infer(m, b, dev)
		samples = append(samples, Sample{
			F:       ExtractBatch(graphs),
			Seconds: dev.Stats().SimTime.Seconds(),
		})
		b.Release(dev)
	}
	return samples
}

// sweepGraph draws one random graph from a random topology family, sized and
// parameterized from rng, with uniform node features attached.
func sweepGraph(rng *tensor.RNG, opt SweepOptions, numFeatures int) *graph.Graph {
	n := opt.MinNodes + rng.IntN(opt.MaxNodes-opt.MinNodes+1)
	var g *graph.Graph
	switch rng.IntN(4) {
	case 0:
		// Target degree 2..8, converted to an edge probability.
		deg := 2 + float64(rng.Float64()*6)
		p := deg / float64(n-1)
		if p > 1 {
			p = 1
		}
		g = graph.ErdosRenyi(rng, n, p)
	case 1:
		g, _ = graph.PlantedPartitionSparse(rng, n, 2+rng.IntN(3), 2+float64(rng.Float64()*4), 0.5+float64(rng.Float64()*1.5))
	case 2:
		g = graph.KNNGeometric(rng, n, 2+rng.IntN(7))
	default:
		g = graph.PreferentialAttachment(rng, n, 1+rng.IntN(4))
	}
	g.X = rng.Uniform(0, 1, g.NumNodes, numFeatures)
	return g
}

// Split partitions samples deterministically into train and held-out sets:
// every holdEvery-th sample (1-based) is held out. The sweep randomizes
// topology per sample, so the held-out set spans every family.
func Split(samples []Sample, holdEvery int) (train, held []Sample) {
	if holdEvery <= 1 {
		return samples, nil
	}
	for i, s := range samples {
		if (i+1)%holdEvery == 0 {
			held = append(held, s)
		} else {
			train = append(train, s)
		}
	}
	return train, held
}
