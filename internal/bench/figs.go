package bench

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/datasets"
	"repro/internal/device"
	"repro/internal/models"
	"repro/internal/profile"
	"repro/internal/tensor"
	"repro/internal/train"
)

// BreakdownRow is one bar of Figs 1-2: a (model, framework, batch size)
// triple with its per-epoch phase breakdown. The same measurement run also
// yields the Fig 4 (peak memory) and Fig 5 (utilization) values, exactly as
// in the paper where all three figures come from the same experiment.
type BreakdownRow struct {
	Dataset   string
	Model     string
	Framework string
	BatchSize int

	Breakdown   profile.Breakdown // mean per epoch
	EpochTime   time.Duration
	PeakBytes   int64   // Fig 4
	Utilization float64 // Fig 5 (fraction of epoch with an active kernel)

	LayerTimes *profile.LayerTimes // Fig 3 (batch 128 runs only)
}

// measureBreakdowns trains every (model, framework, batch size) combination
// for a few epochs on one CV split of d and records the measurements.
func measureBreakdowns(s Settings, d *datasets.Dataset, collectLayers bool) []BreakdownRow {
	w := s.out()
	splits := datasets.CrossValidationSplits(
		datasets.StratifiedKFold(tensor.NewRNG(s.Seed^0xb0), d.GraphLabels(), 5))
	split := splits[0]

	// One untimed collation per backend, at the largest batch size, first:
	// the first measured row then does not pay alone for growing the heap
	// that every later row reuses.
	for _, be := range Backends() {
		be.Batch(d.Graphs[:min(len(d.Graphs), 256)], device.Default())
	}
	var rows []BreakdownRow
	for _, model := range models.AllNames() {
		for _, be := range Backends() {
			for _, bs := range batchSizes() {
				// Start each row from a collected heap. Collation is charged
				// at scaled wall time, so garbage left by the previous row's
				// model would otherwise be swept by GC assists inside this
				// row's batching and inflate its data loading by an amount
				// that depends on which model ran before.
				runtime.GC()
				dev := device.Default()
				m := buildModel(model, be, s.graphConfig(model, d, s.Seed))
				fr := train.TrainGraphFold(m, d, split, train.GraphOptions{
					BatchSize: bs, InitLR: graphLR(model),
					MaxEpochs: s.figEpochs(), Patience: 1 << 30, // measurement run: no decay
					Device: dev, Seed: s.Seed,
					CollectLayerTimes: collectLayers && bs == 128,
					Metrics:           s.Metrics,
				})
				row := BreakdownRow{
					Dataset: d.Name, Model: model, Framework: be.Name(), BatchSize: bs,
					Breakdown: fr.MeanBreakdown(), PeakBytes: fr.MaxPeakBytes(),
					Utilization: fr.MeanUtilization(), LayerTimes: fr.LayerTimes,
				}
				row.EpochTime = row.Breakdown.Total()
				rows = append(rows, row)
				fmt.Fprintf(w, "%-10s %-5s bs=%-4d epoch=%-12s %s  peak=%.1fMB util=%.1f%%\n",
					model, be.Name(), bs, row.EpochTime.Round(time.Microsecond),
					row.Breakdown.String(), float64(row.PeakBytes)/1e6, 100*row.Utilization)
			}
		}
	}
	return rows
}

// Fig1 reproduces the execution-time breakdown per epoch on ENZYMES
// (data loading / forward / backward / update / other at batch 64/128/256).
func Fig1(s Settings) []BreakdownRow {
	d := datasets.Enzymes(s.enzymesOptions())
	fmt.Fprintf(s.out(), "\nFig 1 — execution-time breakdown per epoch, %s\n", d.Name)
	rows := measureBreakdowns(s, d, false)
	RenderBreakdownBars(s.out(), rows)
	return rows
}

// Fig2 reproduces the execution-time breakdown per epoch on DD.
func Fig2(s Settings) []BreakdownRow {
	d := datasets.DD(s.ddOptions())
	fmt.Fprintf(s.out(), "\nFig 2 — execution-time breakdown per epoch, %s\n", d.Name)
	rows := measureBreakdowns(s, d, false)
	RenderBreakdownBars(s.out(), rows)
	return rows
}

// LayerRow is one bar group of Fig 3: a model/framework pair's per-layer
// execution time for training at batch size 128 on ENZYMES.
type LayerRow struct {
	Model     string
	Framework string
	Layers    []string
	Times     []time.Duration
}

// Fig3 reproduces the layer-wise execution time of the six models on
// ENZYMES with batch size 128.
func Fig3(s Settings) []LayerRow {
	w := s.out()
	d := datasets.Enzymes(s.enzymesOptions())
	fmt.Fprintf(w, "\nFig 3 — layer-wise execution time, %s, batch 128\n", d.Name)
	rows := measureBreakdowns(s, d, true)
	var out []LayerRow
	for _, r := range rows {
		if r.BatchSize != 128 || r.LayerTimes == nil {
			continue
		}
		lr := LayerRow{Model: r.Model, Framework: r.Framework}
		fmt.Fprintf(w, "%-10s %-5s", r.Model, r.Framework)
		for _, name := range r.LayerTimes.Names() {
			lr.Layers = append(lr.Layers, name)
			lr.Times = append(lr.Times, r.LayerTimes.Get(name))
			fmt.Fprintf(w, "  %s=%s", name, r.LayerTimes.Get(name).Round(time.Microsecond))
		}
		fmt.Fprintln(w)
		out = append(out, lr)
	}
	return out
}

// Fig4 reproduces peak memory usage per model/batch size/framework on
// ENZYMES and DD. It reuses the Fig 1-2 measurement runs.
func Fig4(s Settings) []BreakdownRow {
	fmt.Fprintf(s.out(), "\nFig 4 — peak memory usage (ENZYMES + DD)\n")
	rows := append(Fig1(s), Fig2(s)...)
	RenderMemoryBars(s.out(), rows)
	return rows
}

// Fig5 reproduces GPU utilization per model/batch size/framework on ENZYMES
// and DD. It reuses the Fig 1-2 measurement runs.
func Fig5(s Settings) []BreakdownRow {
	fmt.Fprintf(s.out(), "\nFig 5 — GPU utilization (ENZYMES + DD)\n")
	rows := append(Fig1(s), Fig2(s)...)
	RenderUtilizationBars(s.out(), rows)
	return rows
}
