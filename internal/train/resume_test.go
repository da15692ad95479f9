package train

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/datasets"
	"repro/internal/device"
	"repro/internal/faults"
	"repro/internal/fw/pygeo"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// resumeModel builds a GIN with dropout: the hardest model to resume
// bit-identically, because it carries every kind of hidden state — BatchNorm
// running statistics (non-parameter buffers) and a dropout mask stream whose
// position advances on every training forward.
func resumeModel(d *datasets.Dataset, seed uint64) models.Model {
	return models.New("GIN", pygeo.New(), models.Config{
		Task: models.GraphClassification, In: d.NumFeatures, Hidden: 12, Out: 12,
		Classes: d.NumClasses, Layers: 2, LearnEps: true, Dropout: 0.2, Seed: seed,
	})
}

// requireBitIdentical asserts two models hold exactly equal parameters and
// buffers — bitwise float equality, no tolerance: the resume invariant.
func requireBitIdentical(t *testing.T, label string, a, b models.Model) {
	t.Helper()
	pa, pb := a.Params(), b.Params()
	if len(pa) != len(pb) {
		t.Fatalf("%s: parameter count %d vs %d", label, len(pa), len(pb))
	}
	for i := range pa {
		for j := range pa[i].Value.Data {
			if pa[i].Value.Data[j] != pb[i].Value.Data[j] {
				t.Fatalf("%s: parameter %s[%d] diverged: %v vs %v",
					label, pa[i].Name, j, pa[i].Value.Data[j], pb[i].Value.Data[j])
			}
		}
	}
	ba, okA := a.(nn.BufferCarrier)
	bb, okB := b.(nn.BufferCarrier)
	if okA != okB {
		t.Fatalf("%s: buffer carriers differ", label)
	}
	if okA {
		bufA, bufB := ba.Buffers(), bb.Buffers()
		for i := range bufA {
			for j := range bufA[i].T.Data {
				if bufA[i].T.Data[j] != bufB[i].T.Data[j] {
					t.Fatalf("%s: buffer %s[%d] diverged: %v vs %v",
						label, bufA[i].Name, j, bufA[i].T.Data[j], bufB[i].T.Data[j])
				}
			}
		}
	}
}

// expectInjectedCrash runs f, which must panic with an ErrInjected-wrapped
// error (the armed crash failpoint). Any other panic is re-raised.
func expectInjectedCrash(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("training ran to completion; the armed crash failpoint never fired")
		}
		err, ok := r.(error)
		if !ok || !errors.Is(err, faults.ErrInjected) {
			panic(r)
		}
	}()
	f()
}

// TestGraphFoldCrashMatrixResumesBitIdentical is the tentpole's acceptance
// test: a graph-classification fold killed right after the snapshot for
// every epoch in turn, then resumed, must reproduce the uninterrupted run's
// loss trajectory and final parameters exactly.
func TestGraphFoldCrashMatrixResumesBitIdentical(t *testing.T) {
	d := tinyEnzymes()
	rng := tensor.NewRNG(11)
	splits := datasets.CrossValidationSplits(datasets.StratifiedKFold(rng, d.GraphLabels(), 4))
	opt := GraphOptions{BatchSize: 16, InitLR: 5e-3, MaxEpochs: 5, Seed: 21}

	base := resumeModel(d, 21)
	baseRes := TrainGraphFold(base, d, splits[0], opt)
	total := len(baseRes.Epochs)
	if total != opt.MaxEpochs {
		t.Fatalf("baseline ran %d epochs, want %d", total, opt.MaxEpochs)
	}

	for crashAt := 1; crashAt < total; crashAt++ {
		dir := t.TempDir()
		copt := opt
		copt.Checkpointing = Checkpointing{CheckpointDir: dir}

		faults.Enable(CrashFailpoint, int64(crashAt))
		expectInjectedCrash(t, func() {
			TrainGraphFold(resumeModel(d, 21), d, splits[0], copt)
		})
		faults.Disable(CrashFailpoint)

		copt.Resume = true
		resumed := resumeModel(d, 21)
		res := TrainGraphFold(resumed, d, splits[0], copt)
		if len(res.Epochs) != total-crashAt {
			t.Fatalf("crash@%d: resumed run replayed %d epochs, want %d",
				crashAt, len(res.Epochs), total-crashAt)
		}
		for i, e := range res.Epochs {
			b := baseRes.Epochs[crashAt+i]
			if e.TrainLoss != b.TrainLoss || e.ValLoss != b.ValLoss {
				t.Fatalf("crash@%d epoch %d: loss trajectory diverged: %v/%v vs %v/%v",
					crashAt, crashAt+i, e.TrainLoss, e.ValLoss, b.TrainLoss, b.ValLoss)
			}
		}
		if res.TestAcc != baseRes.TestAcc {
			t.Fatalf("crash@%d: test accuracy %v, want %v", crashAt, res.TestAcc, baseRes.TestAcc)
		}
		requireBitIdentical(t, "crash@"+string(rune('0'+crashAt)), base, resumed)
	}
}

// TestGraphFoldResumeFallsBackPastTornWrite persists a torn newest file (a
// crash mid-write that survived to disk) and proves resume falls back to the
// previous snapshot, replays the lost epoch, and still lands bit-identical.
func TestGraphFoldResumeFallsBackPastTornWrite(t *testing.T) {
	d := tinyEnzymes()
	rng := tensor.NewRNG(12)
	splits := datasets.CrossValidationSplits(datasets.StratifiedKFold(rng, d.GraphLabels(), 4))
	opt := GraphOptions{BatchSize: 16, InitLR: 5e-3, MaxEpochs: 4, Seed: 22}

	base := resumeModel(d, 22)
	baseRes := TrainGraphFold(base, d, splits[0], opt)

	dir := t.TempDir()
	copt := opt
	copt.Checkpointing = Checkpointing{CheckpointDir: dir, CheckpointKeep: 4}
	faults.Enable(CrashFailpoint, 3)
	expectInjectedCrash(t, func() {
		TrainGraphFold(resumeModel(d, 22), d, splits[0], copt)
	})
	faults.Disable(CrashFailpoint)

	// Truncate the newest checkpoint to half its length — the shape a torn
	// write leaves when the crash beat the fsync.
	names, err := filepath.Glob(filepath.Join(dir, "*"+ckpt.FileSuffix))
	if err != nil || len(names) < 2 {
		t.Fatalf("checkpoints on disk: %v (err %v)", names, err)
	}
	newest := names[len(names)-1]
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newest, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	copt.Resume = true
	resumed := resumeModel(d, 22)
	res := TrainGraphFold(resumed, d, splits[0], copt)
	// Fallback landed on the epoch-2 snapshot, so epochs 2 and 3 replay.
	if len(res.Epochs) != 2 {
		t.Fatalf("resumed run replayed %d epochs, want 2 (fallback past the torn file)", len(res.Epochs))
	}
	for i, e := range res.Epochs {
		if b := baseRes.Epochs[2+i]; e.TrainLoss != b.TrainLoss {
			t.Fatalf("epoch %d: loss %v, want %v", 2+i, e.TrainLoss, b.TrainLoss)
		}
	}
	requireBitIdentical(t, "torn-write fallback", base, resumed)
}

// TestNodeCrashResumeBitIdentical covers the full-batch node recipe with its
// early-stopping state.
func TestNodeCrashResumeBitIdentical(t *testing.T) {
	d := tinyCora()
	opt := NodeOptions{Epochs: 8, LR: 0.01, Patience: 50, Seed: 31}

	base := nodeModel(pygeo.New(), d, 31)
	baseRes := TrainNode(base, d, opt)

	dir := t.TempDir()
	copt := opt
	copt.Checkpointing = Checkpointing{CheckpointDir: dir, CheckpointEvery: 2}
	faults.Enable(CrashFailpoint, 4)
	expectInjectedCrash(t, func() {
		TrainNode(nodeModel(pygeo.New(), d, 31), d, copt)
	})
	faults.Disable(CrashFailpoint)

	copt.Resume = true
	resumed := nodeModel(pygeo.New(), d, 31)
	res := TrainNode(resumed, d, copt)
	if res.Epochs != 8 {
		t.Fatalf("resumed run's epoch cursor %d, want 8", res.Epochs)
	}
	if len(res.EpochTimes) != 4 {
		t.Fatalf("resumed run replayed %d epochs, want 4", len(res.EpochTimes))
	}
	if res.FinalLoss != baseRes.FinalLoss || res.TestAcc != baseRes.TestAcc {
		t.Fatalf("resumed loss/acc %v/%v, want %v/%v",
			res.FinalLoss, res.TestAcc, baseRes.FinalLoss, baseRes.TestAcc)
	}
	requireBitIdentical(t, "node resume", base, resumed)
}

// TestDataParallelCrashResumeBitIdentical covers the DataParallel recipe.
func TestDataParallelCrashResumeBitIdentical(t *testing.T) {
	d := tinyEnzymes()
	newCluster := func() DPOptions {
		c := device.NewCluster(2, device.RTX2080Ti(), device.PCIe3x16())
		return DPOptions{BatchSize: 16, LR: 1e-3, Epochs: 3, Seed: 41, Cluster: c}
	}

	base := resumeModel(d, 41)
	_, _ = RunDataParallel(base, d, newCluster())

	dir := t.TempDir()
	copt := newCluster()
	copt.Checkpointing = Checkpointing{CheckpointDir: dir}
	faults.Enable(CrashFailpoint, 1)
	expectInjectedCrash(t, func() {
		RunDataParallel(resumeModel(d, 41), d, copt)
	})
	faults.Disable(CrashFailpoint)

	copt = newCluster()
	copt.Checkpointing = Checkpointing{CheckpointDir: dir, Resume: true}
	resumed := resumeModel(d, 41)
	stats, _ := RunDataParallel(resumed, d, copt)
	if len(stats) != 2 {
		t.Fatalf("resumed run replayed %d epochs, want 2", len(stats))
	}
	requireBitIdentical(t, "dataparallel resume", base, resumed)
}

// TestResumeSeedMismatchPanics: pointing Resume at another experiment's
// checkpoint directory must fail loudly, not silently blend two runs.
func TestResumeSeedMismatchPanics(t *testing.T) {
	d := tinyCora()
	dir := t.TempDir()
	opt := NodeOptions{Epochs: 2, LR: 0.01, Seed: 7,
		Checkpointing: Checkpointing{CheckpointDir: dir}}
	TrainNode(nodeModel(pygeo.New(), d, 7), d, opt)

	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("seed mismatch did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "seed") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	opt.Seed = 8
	opt.Resume = true
	TrainNode(nodeModel(pygeo.New(), d, 8), d, opt)
}

// TestCheckpointRetentionDuringTraining: a long run prunes to keep-last-K.
func TestCheckpointRetentionDuringTraining(t *testing.T) {
	d := tinyCora()
	dir := t.TempDir()
	opt := NodeOptions{Epochs: 7, LR: 0.01, Seed: 9,
		Checkpointing: Checkpointing{CheckpointDir: dir, CheckpointKeep: 2}}
	TrainNode(nodeModel(pygeo.New(), d, 9), d, opt)
	names, err := filepath.Glob(filepath.Join(dir, "*"+ckpt.FileSuffix))
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 {
		t.Fatalf("retention kept %d checkpoints (%v), want 2", len(names), names)
	}
}

// TestNodeResumeOfFinishedRun is the case -resume exists for: an interrupted
// sweep is restarted and meets the checkpoint directory of a cell that had
// already finished. The run restores its final state, runs no epoch, reports
// zero times instead of dividing by the epoch count, and still evaluates.
func TestNodeResumeOfFinishedRun(t *testing.T) {
	d := tinyCora()
	opt := NodeOptions{Epochs: 4, LR: 0.01, Seed: 51,
		Checkpointing: Checkpointing{CheckpointDir: t.TempDir()}}
	first := TrainNode(nodeModel(pygeo.New(), d, 51), d, opt)

	opt.Resume = true
	res := TrainNode(nodeModel(pygeo.New(), d, 51), d, opt)
	if res.Epochs != 4 || len(res.EpochTimes) != 0 {
		t.Fatalf("resumed a finished run: epoch cursor %d, %d epochs run; want 4 and 0", res.Epochs, len(res.EpochTimes))
	}
	if res.EpochMean != 0 || res.Total != 0 {
		t.Fatalf("no epoch ran, yet EpochMean %v Total %v", res.EpochMean, res.Total)
	}
	if res.TestAcc != first.TestAcc || res.ValAcc != first.ValAcc {
		t.Fatalf("restored model scores %v/%v, the finished run scored %v/%v",
			res.TestAcc, res.ValAcc, first.TestAcc, first.ValAcc)
	}
}

// TestDataParallelResumeMeansItsOwnEpochs: Fig 6 plots the mean epoch time,
// so a resumed run must average over the epochs it ran, not over the
// configured count; a finished run resumed runs none and reports zero.
func TestDataParallelResumeMeansItsOwnEpochs(t *testing.T) {
	d := tinyEnzymes()
	dir := t.TempDir()
	options := func(resume bool) DPOptions {
		c := device.NewCluster(2, device.RTX2080Ti(), device.PCIe3x16())
		return DPOptions{BatchSize: 16, LR: 1e-3, Epochs: 3, Seed: 61, Cluster: c,
			Checkpointing: Checkpointing{CheckpointDir: dir, Resume: resume}}
	}
	faults.Enable(CrashFailpoint, 1)
	expectInjectedCrash(t, func() {
		RunDataParallel(resumeModel(d, 61), d, options(false))
	})
	faults.Disable(CrashFailpoint)

	stats, mean := RunDataParallel(resumeModel(d, 61), d, options(true))
	if len(stats) != 2 {
		t.Fatalf("resumed run replayed %d epochs, want 2", len(stats))
	}
	if want := (stats[0].EpochTime + stats[1].EpochTime) / 2; mean != want {
		t.Fatalf("mean epoch time %v over 2 resumed epochs of %v and %v, want %v",
			mean, stats[0].EpochTime, stats[1].EpochTime, want)
	}

	stats, mean = RunDataParallel(resumeModel(d, 61), d, options(true))
	if len(stats) != 0 || mean != 0 {
		t.Fatalf("resumed a finished run: %d epochs, mean %v; want none", len(stats), mean)
	}
}

// TestGraphCVResumeOfCappedFolds pins the graph recipe's side of the same
// case (it was already right): folds that stopped at their MaxEpochs cap —
// gnnbench -quick — resumed through RunGraphCV run zero epochs and report the
// accuracy the finished folds reported.
func TestGraphCVResumeOfCappedFolds(t *testing.T) {
	d := tinyEnzymes()
	splits := datasets.CrossValidationSplits(datasets.StratifiedKFold(tensor.NewRNG(13), d.GraphLabels(), 4))[:2]
	factory := func(seed uint64) models.Model { return resumeModel(d, 71+seed) }
	opt := GraphOptions{BatchSize: 16, InitLR: 5e-3, MaxEpochs: 2, Seed: 71,
		Checkpointing: Checkpointing{CheckpointDir: t.TempDir()}}
	first := RunGraphCV(factory, d, splits, opt)

	opt.Resume = true
	res := RunGraphCV(factory, d, splits, opt)
	for i, fr := range res.Folds {
		if len(first.Folds[i].Epochs) != opt.MaxEpochs {
			t.Fatalf("fold %d: first run stopped after %d epochs, want the cap %d", i, len(first.Folds[i].Epochs), opt.MaxEpochs)
		}
		if len(fr.Epochs) != 0 {
			t.Fatalf("fold %d: resumed a finished fold and ran %d epochs", i, len(fr.Epochs))
		}
		if fr.TestAcc != first.Folds[i].TestAcc {
			t.Fatalf("fold %d: restored model scores %v, the finished fold scored %v", i, fr.TestAcc, first.Folds[i].TestAcc)
		}
	}
	if res.AccMean != first.AccMean || res.EpochMean != 0 {
		t.Fatalf("resumed CV: accuracy %v (want %v), mean epoch %v (want 0)", res.AccMean, first.AccMean, res.EpochMean)
	}
}
