package train

import (
	"fmt"
	"math"
	"path/filepath"
	"time"

	"repro/internal/ag"
	"repro/internal/ckpt"
	"repro/internal/datasets"
	"repro/internal/device"
	"repro/internal/fw"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/optim"
	"repro/internal/parallel"
	"repro/internal/profile"
	"repro/internal/tensor"
)

// GraphOptions configures mini-batch graph-classification training with the
// paper's recipe (Sec. IV-B): Adam, ReduceLROnPlateau(0.5, patience 25,
// min_lr 1e-6), batch size 128, training stops when the LR decays away.
type GraphOptions struct {
	BatchSize int
	InitLR    float64
	MaxEpochs int // safety cap on top of the LR stopping rule
	Patience  int // plateau patience (paper: 25)
	MinLR     float64
	Device    *device.Device
	Seed      uint64 // shuffling seed

	// Checkpointing configures crash-safe snapshots and resume; the zero
	// value disables them.
	Checkpointing

	// CollectLayerTimes turns on per-layer timing (Fig 3) aggregated over
	// the run.
	CollectLayerTimes bool

	// Metrics receives the training loop's counters and gauges (epochs,
	// batches, per-phase seconds, losses, accuracy, peak memory,
	// utilization); nil disables metric recording.
	Metrics *obs.Registry
	// Tracer records fold → epoch → batch → phase spans; nil disables
	// tracing.
	Tracer *obs.Tracer
}

func (o *GraphOptions) defaults() {
	if o.BatchSize <= 0 {
		o.BatchSize = 128
	}
	if o.MaxEpochs <= 0 {
		o.MaxEpochs = 1000
	}
	if o.Patience <= 0 {
		o.Patience = 25
	}
	if o.MinLR <= 0 {
		o.MinLR = 1e-6
	}
	if o.InitLR <= 0 {
		o.InitLR = 1e-3
	}
}

// EpochStats records one epoch's measurements.
type EpochStats struct {
	Duration    time.Duration
	Breakdown   profile.Breakdown
	Utilization float64 // paper Eq. 5, from device kernel activity
	PeakBytes   int64   // allocator high-water mark during the epoch
	TrainLoss   float64
	ValLoss     float64
}

// FoldResult is one cross-validation round's outcome.
type FoldResult struct {
	TestAcc    float64
	Epochs     []EpochStats
	LayerTimes *profile.LayerTimes // non-nil when requested
}

// EpochMean returns the mean epoch duration.
func (f *FoldResult) EpochMean() time.Duration {
	if len(f.Epochs) == 0 {
		return 0
	}
	var sum time.Duration
	for _, e := range f.Epochs {
		sum += e.Duration
	}
	return sum / time.Duration(len(f.Epochs))
}

// TotalTime returns the summed epoch durations.
func (f *FoldResult) TotalTime() time.Duration {
	var sum time.Duration
	for _, e := range f.Epochs {
		sum += e.Duration
	}
	return sum
}

// MeanBreakdown averages the per-epoch phase breakdown.
func (f *FoldResult) MeanBreakdown() profile.Breakdown {
	var b profile.Breakdown
	for i := range f.Epochs {
		f.Epochs[i].Breakdown.AddInto(&b)
	}
	b.Scale(len(f.Epochs))
	return b
}

// MeanUtilization averages per-epoch device utilization.
func (f *FoldResult) MeanUtilization() float64 {
	if len(f.Epochs) == 0 {
		return 0
	}
	var s float64
	for _, e := range f.Epochs {
		s += e.Utilization
	}
	return s / float64(len(f.Epochs))
}

// MaxPeakBytes returns the largest per-epoch memory high-water mark.
func (f *FoldResult) MaxPeakBytes() int64 {
	var m int64
	for _, e := range f.Epochs {
		if e.PeakBytes > m {
			m = e.PeakBytes
		}
	}
	return m
}

// TrainGraphFold trains m on one CV split and evaluates its test accuracy.
func TrainGraphFold(m models.Model, d *datasets.Dataset, split datasets.CVSplit, opt GraphOptions) FoldResult {
	if len(split.Train) == 0 {
		panic("train: cross-validation split has no training graphs")
	}
	opt.defaults()
	be := m.Backend()
	dev := opt.Device
	rng := tensor.NewRNG(opt.Seed ^ 0x9f2d)
	adam := optim.NewAdam(m.Params(), opt.InitLR)
	adam.SetDevice(dev)
	sch := optim.NewPlateau(adam)
	sch.Patience = opt.Patience
	sch.MinLR = opt.MinLR

	var res FoldResult
	if opt.CollectLayerTimes {
		res.LayerTimes = profile.NewLayerTimes()
	}
	tm := newTrainMetrics(opt.Metrics)
	foldSpan := opt.Tracer.Start("fold",
		obs.String("model", m.Name()), obs.String("framework", be.Name()), obs.String("dataset", d.Name))
	defer foldSpan.End()
	// The device carries the framework's runtime baseline (what nvidia-smi
	// reports before any batch) plus the model's parameter state.
	residentBytes := paramFootprint(m) + be.BaselineBytes()
	dev.Alloc(residentBytes)
	defer dev.Free(residentBytes)

	order := append([]int(nil), split.Train...)
	hook := newCkptHook(opt.Checkpointing, m, adam, []*tensor.RNG{rng}, opt.Metrics)
	startEpoch := 0
	if hook != nil {
		hook.state.Seed = opt.Seed
		hook.state.Order = order
		if opt.Resume && hook.resume(opt.Seed) {
			// Everything tensor- and stream-shaped was restored in place;
			// the scheduler's progress and the (history-dependent, shuffled
			// in place) permutation come back through the state struct.
			sch.SetState(hook.state.Sched.Best, hook.state.Sched.Bad, hook.state.Sched.Started)
			order = hook.state.Order
			startEpoch = hook.state.Epoch
		}
	}
	for epoch := startEpoch; epoch < opt.MaxEpochs; epoch++ {
		epochSpan := foldSpan.Child("epoch", obs.Int("epoch", epoch))
		dev.ResetTime()
		dev.ResetPeak()
		var bd profile.Breakdown
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })

		var lossSum float64
		batches := 0
		clock := newPhaseClock(dev, &bd, be.DispatchOverhead())
		for lo := 0; lo < len(order); lo += opt.BatchSize {
			hi := lo + opt.BatchSize
			if hi > len(order) {
				hi = len(order)
			}
			batchSpan := epochSpan.Child("batch", obs.Int("batch", batches), obs.Int("graphs", hi-lo))
			var b *fw.Batch
			sp := batchSpan.Child("data-load")
			clock.timeCollate(func() {
				b = be.Batch(gatherGraphs(d, order[lo:hi]), dev)
			})
			// The batch crosses the host-device link before kernels can run.
			bd.Add(profile.PhaseDataLoad, hostToDevice.TransferTime(b.Bytes()))
			sp.End()
			g := ag.New(dev)
			var loss *ag.Node
			sp = batchSpan.Child("forward")
			clock.time(profile.PhaseForward, func() {
				logits := m.Forward(g, b, true, res.LayerTimes)
				loss = g.CrossEntropy(logits, b.Labels, nil)
			})
			sp.End()
			sp = batchSpan.Child("backward")
			clock.time(profile.PhaseBackward, func() {
				adam.ZeroGrad()
				g.Backward(loss)
			})
			sp.End()
			sp = batchSpan.Child("update")
			clock.time(profile.PhaseUpdate, func() {
				adam.Step()
			})
			sp.End()
			lossSum += loss.Value().Data[0]
			batches++
			tm.batches.Inc()
			g.Finish()
			b.Release(dev)
			batchSpan.End()
		}

		var valLoss float64
		sp := epochSpan.Child("validate")
		clock.time(profile.PhaseOther, func() {
			valLoss = evalGraphLoss(m, d, split.Val, opt.BatchSize, dev)
		})
		sp.End()
		elapsed := bd.Total()
		stats := EpochStats{
			Duration:    elapsed,
			Breakdown:   bd,
			Utilization: device.Utilization(dev.Stats().SimTime, elapsed),
			PeakBytes:   dev.Stats().PeakBytes,
			TrainLoss:   lossSum / float64(batches),
			ValLoss:     valLoss,
		}
		res.Epochs = append(res.Epochs, stats)
		tm.observeEpoch(stats)
		epochSpan.End()
		cont := sch.Step(valLoss)
		if hook != nil {
			best, bad, started := sch.State()
			hook.state.Sched = ckpt.Sched{Kind: ckpt.SchedPlateau, Best: best, Bad: bad, Started: started}
			hook.state.Order = order
		}
		// Snapshot after the scheduler has absorbed this epoch's loss, so a
		// resume replays neither the epoch nor its scheduler step; force one
		// at the stopping rule so the final state always survives.
		hook.snapshot(epoch+1, !cont)
		if !cont {
			break
		}
	}
	sp := foldSpan.Child("evaluate")
	res.TestAcc = EvalGraphAcc(m, d, split.Test, opt.BatchSize, dev)
	sp.End()
	tm.testAcc.Set(res.TestAcc)
	return res
}

func gatherGraphs(d *datasets.Dataset, idx []int) []*graph.Graph {
	gs := make([]*graph.Graph, len(idx))
	for i, j := range idx {
		gs[i] = d.Graphs[j]
	}
	return gs
}

func paramFootprint(m models.Model) int64 {
	var n int64
	for _, p := range m.Params() {
		n += int64(p.Value.Size()+p.Grad.Size()) * 8
	}
	return n
}

// batchRanges splits len(idx) items into [lo,hi) mini-batch index ranges.
func batchRanges(n, batchSize int) [][2]int {
	var rs [][2]int
	for lo := 0; lo < n; lo += batchSize {
		hi := lo + batchSize
		if hi > n {
			hi = n
		}
		rs = append(rs, [2]int{lo, hi})
	}
	return rs
}

// evalBatches runs m in eval mode over the indexed graphs, one mini-batch per
// entry of ranges, and hands visit each batch with its logits (one row per
// graph).
//
// Eval-mode forward is free of side effects on the model (batch norm reads
// running statistics, dropout is the identity), so the mini-batches fan out
// across the worker pool. visit may run concurrently for different bi;
// callers keep per-batch results and reduce them serially in batch order,
// which keeps every result identical for any worker count.
func evalBatches(m models.Model, d *datasets.Dataset, idx []int, ranges [][2]int, dev *device.Device,
	visit func(bi int, b *fw.Batch, logits *tensor.Tensor)) {
	be := m.Backend()
	parallel.For(len(ranges), 1, func(blo, bhi int) {
		for bi := blo; bi < bhi; bi++ {
			b := be.Batch(gatherGraphs(d, idx[ranges[bi][0]:ranges[bi][1]]), dev)
			visit(bi, b, evalLogits(m, b, dev))
			b.Release(dev)
		}
	})
}

// EvalGraphAcc computes test accuracy over mini-batches in eval mode.
func EvalGraphAcc(m models.Model, d *datasets.Dataset, idx []int, batchSize int, dev *device.Device) float64 {
	if len(idx) == 0 {
		return 0
	}
	ranges := batchRanges(len(idx), batchSize)
	corrects := make([]int, len(ranges))
	evalBatches(m, d, idx, ranges, dev, func(bi int, b *fw.Batch, logits *tensor.Tensor) {
		for i, p := range tensor.ArgMaxRows(logits) {
			if p == b.Labels[i] {
				corrects[bi]++
			}
		}
	})
	correct := 0
	for _, c := range corrects {
		correct += c
	}
	return float64(correct) / float64(len(idx))
}

// nll is the cross-entropy of one logits row against its label, by
// max-shifted log-sum-exp. Validation loss steers the LR scheduler and early
// stopping, so a resumed run must reproduce its bits: keep the expression.
func nll(row []float64, label int) float64 {
	mx := row[0]
	for _, v := range row {
		if v > mx {
			mx = v
		}
	}
	var z float64
	for _, v := range row {
		z += math.Exp(v - mx)
	}
	return -(row[label] - mx) + math.Log(z)
}

func evalGraphLoss(m models.Model, d *datasets.Dataset, idx []int, batchSize int, dev *device.Device) float64 {
	if len(idx) == 0 {
		return 0
	}
	ranges := batchRanges(len(idx), batchSize)
	sums := make([]float64, len(ranges))
	evalBatches(m, d, idx, ranges, dev, func(bi int, b *fw.Batch, logits *tensor.Tensor) {
		for i, label := range b.Labels {
			sums[bi] += nll(logits.Row(i), label)
		}
	})
	var total float64
	for _, s := range sums {
		total += s
	}
	return total / float64(len(idx))
}

// CVResult aggregates a cross-validation run (the paper's Table V rows).
type CVResult struct {
	Model, Framework, Dataset string
	AccMean, AccStd           float64 // percent
	EpochMean                 time.Duration
	TotalMean                 time.Duration
	Folds                     []FoldResult
}

// RunGraphCV trains a fresh model per CV round and aggregates, mirroring the
// paper's 10-fold protocol. factory receives the fold index as seed salt.
func RunGraphCV(factory func(seed uint64) models.Model, d *datasets.Dataset, splits []datasets.CVSplit, opt GraphOptions) CVResult {
	var res CVResult
	res.Dataset = d.Name
	var accs []float64
	var epochSum, totalSum time.Duration
	for fold, split := range splits {
		m := factory(uint64(fold))
		if res.Model == "" {
			res.Model = m.Name()
			res.Framework = m.Backend().Name()
		}
		foldOpt := opt
		foldOpt.Seed = opt.Seed + uint64(fold)
		if opt.CheckpointDir != "" {
			// Each fold trains a fresh model from its own cursor, so each
			// gets its own checkpoint lineage; on resume, finished folds
			// replay only from their final snapshot to the stopping rule.
			foldOpt.CheckpointDir = filepath.Join(opt.CheckpointDir, fmt.Sprintf("fold-%04d", fold))
		}
		fr := TrainGraphFold(m, d, split, foldOpt)
		accs = append(accs, fr.TestAcc*100)
		epochSum += fr.EpochMean()
		totalSum += fr.TotalTime()
		res.Folds = append(res.Folds, fr)
	}
	res.AccMean, res.AccStd = profile.Stats(accs)
	res.EpochMean = epochSum / time.Duration(len(splits))
	res.TotalMean = totalSum / time.Duration(len(splits))
	return res
}
