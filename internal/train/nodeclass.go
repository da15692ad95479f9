// Package train implements the paper's three training recipes: full-batch
// node classification (Sec. IV-A: Adam, 200 epochs, standard citation
// splits), mini-batch graph classification with 10-fold stratified
// cross-validation and plateau learning-rate decay (Sec. IV-B), and
// DataParallel multi-device training (Sec. IV-E). Every run records the
// paper's measurements: per-epoch time, phase breakdown, layer times, device
// utilization and peak memory.
package train

import (
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/ag"
	"repro/internal/ckpt"
	"repro/internal/datasets"
	"repro/internal/device"
	"repro/internal/fw"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/optim"
	"repro/internal/profile"
)

// NodeOptions configures full-batch node-classification training.
type NodeOptions struct {
	Epochs int     // maximum epochs (paper: 200)
	LR     float64 // Adam learning rate (Table II)
	Device *device.Device
	// Patience for early stopping on validation loss; 0 disables (the paper
	// trains with an early-stopping criterion alongside the epoch cap).
	Patience int
	// Seed is the run's base seed, recorded in checkpoints so a resume can
	// detect a mismatched experiment.
	Seed uint64
	// Checkpointing configures crash-safe snapshots and resume; the zero
	// value disables them.
	Checkpointing
	// Metrics receives epoch counters and loss gauges; nil disables.
	Metrics *obs.Registry
	// Tracer records run → epoch spans; nil disables.
	Tracer *obs.Tracer
}

// NodeResult is one training run's outcome. A resumed run reports its epoch
// cursor in Epochs and times only the epochs this process ran; resuming a
// run that had already finished runs none, so its times and FinalLoss are
// zero and only the accuracies are evaluated.
type NodeResult struct {
	TestAcc    float64
	ValAcc     float64
	Epochs     int           // epoch cursor: epochs completed, resumed ones included
	EpochMean  time.Duration // mean time per epoch run by this process
	Total      time.Duration
	FinalLoss  float64
	EpochTimes []time.Duration
}

// TrainNode runs one full-batch node-classification training of m on the
// single-graph dataset d.
func TrainNode(m models.Model, d *datasets.Dataset, opt NodeOptions) NodeResult {
	if !d.IsNodeTask() {
		panic("train: TrainNode needs a single-graph node-classification dataset")
	}
	if opt.Epochs <= 0 {
		opt.Epochs = 200
	}
	be := m.Backend()
	dev := opt.Device
	b := be.Batch(d.Graphs, dev)
	defer b.Release(dev)

	opt2 := optim.NewAdam(m.Params(), opt.LR)
	opt2.SetDevice(dev)
	stopper := &optim.EarlyStopping{Patience: opt.Patience}

	tm := newTrainMetrics(opt.Metrics)
	runSpan := opt.Tracer.Start("node-train",
		obs.String("model", m.Name()), obs.String("framework", be.Name()), obs.String("dataset", d.Name))
	defer runSpan.End()

	hook := newCkptHook(opt.Checkpointing, m, opt2, nil, opt.Metrics)
	startEpoch := 0
	if hook != nil {
		hook.state.Seed = opt.Seed
		if opt.Resume && hook.resume(opt.Seed) {
			stopper.SetState(hook.state.Sched.Best, hook.state.Sched.Bad, hook.state.Sched.Started)
			startEpoch = hook.state.Epoch
		}
	}

	res := NodeResult{Epochs: startEpoch}
	for epoch := startEpoch; epoch < opt.Epochs; epoch++ {
		epochSpan := runSpan.Child("epoch", obs.Int("epoch", epoch))
		// Epoch times are reported on the modeled timeline: host work at
		// wall time, kernels at device cost-model time (see profile.
		// ModeledDuration) — the clock a GPU-backed run would show.
		s0 := dev.Stats()
		t0 := time.Now() //gnnvet:allow determinism -- epoch timing stat only; never enters model state
		g := ag.New(dev)
		logits := m.Forward(g, b, true, nil)
		loss := g.CrossEntropy(logits, b.NodeLabels, d.TrainIdx)
		opt2.ZeroGrad()
		g.Backward(loss)
		opt2.Step()
		res.FinalLoss = loss.Value().Data[0]
		g.Finish()
		wall := time.Since(t0)
		s1 := dev.Stats()
		epochTime := profile.ModeledDuration(wall, s1.ActiveTime-s0.ActiveTime, s1.SimTime-s0.SimTime)
		epochTime += time.Duration(s1.Kernels-s0.Kernels) * be.DispatchOverhead()
		res.EpochTimes = append(res.EpochTimes, epochTime)
		res.Epochs = epoch + 1
		tm.epochs.Inc()
		tm.epochSeconds.Observe(epochTime.Seconds())
		tm.trainLoss.Set(res.FinalLoss)

		stop := false
		if opt.Patience > 0 {
			sp := epochSpan.Child("validate")
			valLoss := evalNodeLoss(m, b, d.ValIdx, dev)
			sp.End()
			tm.valLoss.Set(valLoss)
			stop = !stopper.Step(valLoss)
		}
		epochSpan.End()
		if hook != nil {
			best, bad, started := stopper.State()
			hook.state.Sched = ckpt.Sched{Kind: ckpt.SchedEarlyStop, Best: best, Bad: bad, Started: started}
		}
		hook.snapshot(epoch+1, stop || epoch+1 == opt.Epochs)
		if stop {
			break
		}
	}
	var sum time.Duration
	for _, t := range res.EpochTimes {
		sum += t
	}
	if n := len(res.EpochTimes); n > 0 {
		res.EpochMean = sum / time.Duration(n)
	}
	res.Total = sum

	sp := runSpan.Child("evaluate")
	res.ValAcc = evalNodeAcc(m, b, d.ValIdx, dev)
	res.TestAcc = evalNodeAcc(m, b, d.TestIdx, dev)
	sp.End()
	tm.testAcc.Set(res.TestAcc)
	return res
}

func evalNodeLoss(m models.Model, b *fw.Batch, idx []int, dev *device.Device) float64 {
	logits := models.Infer(m, b, dev)
	var total float64
	for _, i := range idx {
		total += nll(logits.Row(i), b.NodeLabels[i])
	}
	return total / float64(len(idx))
}

func evalNodeAcc(m models.Model, b *fw.Batch, idx []int, dev *device.Device) float64 {
	return ag.Accuracy(models.Infer(m, b, dev), b.NodeLabels, idx)
}

// NodeSummary aggregates TrainNode runs over seeds, giving the paper's
// "Epoch/Total" and "Acc±s.d." columns (Table IV).
type NodeSummary struct {
	Model, Framework string
	Dataset          string
	EpochMean        time.Duration
	TotalMean        time.Duration
	AccMean, AccStd  float64
	Runs             int
	PerRunAcc        []float64
	PerRunEpoch      []time.Duration
}

// RunNodeSeeds trains a fresh model per seed and summarizes.
func RunNodeSeeds(factory func(seed uint64) models.Model, d *datasets.Dataset, opt NodeOptions, seeds []uint64) NodeSummary {
	var s NodeSummary
	s.Dataset = d.Name
	var totalEpoch, totalTotal time.Duration
	for _, seed := range seeds {
		m := factory(seed)
		if s.Model == "" {
			s.Model = m.Name()
			s.Framework = m.Backend().Name()
		}
		runOpt := opt
		runOpt.Seed = seed
		if opt.CheckpointDir != "" {
			runOpt.CheckpointDir = filepath.Join(opt.CheckpointDir, fmt.Sprintf("seed-%04d", seed))
		}
		r := TrainNode(m, d, runOpt)
		s.PerRunAcc = append(s.PerRunAcc, r.TestAcc*100)
		s.PerRunEpoch = append(s.PerRunEpoch, r.EpochMean)
		totalEpoch += r.EpochMean
		totalTotal += r.Total
	}
	s.Runs = len(seeds)
	s.EpochMean = totalEpoch / time.Duration(len(seeds))
	s.TotalMean = totalTotal / time.Duration(len(seeds))
	s.AccMean, s.AccStd = profile.Stats(s.PerRunAcc)
	return s
}
