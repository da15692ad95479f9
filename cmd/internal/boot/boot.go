// Package boot is the start-up path gnnserve and gnnworker share: flag
// values in, a backend, the width-probe dataset, the model, its weights and
// the replica set out. The coordinator refuses any worker whose model hash
// differs from its own, so the two binaries must build the served model
// identically — here, once.
package boot

import (
	"fmt"
	"os"

	"repro/internal/ckpt"
	"repro/internal/datasets"
	"repro/internal/device"
	"repro/internal/fw"
	"repro/internal/fw/dglb"
	"repro/internal/fw/pygeo"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// Backend resolves a -framework flag value.
func Backend(name string) (fw.Backend, error) {
	switch name {
	case "PyG":
		return pygeo.New(), nil
	case "DGL":
		return dglb.New(), nil
	}
	return nil, fmt.Errorf("unknown framework %q (want PyG or DGL)", name)
}

// Dataset resolves a -dataset flag value at the given scale; the served
// model takes its feature and class widths from it.
func Dataset(name string, scale float64) (*datasets.Dataset, error) {
	opt := datasets.Options{Seed: 1, Scale: scale}
	switch name {
	case "ENZYMES":
		return datasets.Enzymes(opt), nil
	case "DD":
		return datasets.DD(opt), nil
	case "MNIST":
		return datasets.MNISTSuperpixels(opt), nil
	}
	return nil, fmt.Errorf("unknown dataset %q (want ENZYMES, DD or MNIST)", name)
}

// NewModel builds the served graph-classification model at d's widths with
// its seed-1 initial weights.
func NewModel(name string, be fw.Backend, d *datasets.Dataset) models.Model {
	return models.New(name, be, models.Config{
		Task: models.GraphClassification, In: d.NumFeatures, Hidden: 64, Out: 64,
		Classes: d.NumClasses, Layers: 4, Heads: 8, Kernels: 2, LearnEps: true, Seed: 1,
	})
}

// LoadWeights fills m from the -checkpoint-dir (newest recoverable GNNCKPT2
// file) or -checkpoint (nn.Save format) source and returns the file read,
// "" when neither is set and m keeps its initial weights. On a mismatch,
// nn.Load and ckpt.Read both name the offending parameter and its
// expected-vs-found shape; the source path is added here so the operator can
// tell which file disagreed with the -model flag.
func LoadWeights(m models.Model, checkpoint, checkpointDir string) (string, error) {
	switch {
	case checkpointDir != "":
		dir, err := ckpt.Open(checkpointDir, 0)
		if err != nil {
			return "", err
		}
		path, err := dir.Load(&ckpt.State{Params: m.Params()})
		if err != nil {
			return "", fmt.Errorf("load checkpoint directory %s: %w", checkpointDir, err)
		}
		return path, nil
	case checkpoint != "":
		f, err := os.Open(checkpoint)
		if err != nil {
			return "", err
		}
		err = nn.Load(f, m.Params())
		f.Close()
		if err != nil {
			return "", fmt.Errorf("load checkpoint %s: %w", checkpoint, err)
		}
		return checkpoint, nil
	}
	return "", nil
}

// Replicas builds n forward-only replicas of m, each accounted to its own
// simulated device. An empty dtype is the eager f64 reference path; f64, f32
// or q8 selects compiled replicas, which record each batch shape's forward
// tape once and replay it allocation-free with weights held at that
// precision. mode describes the choice for the start-up line.
func Replicas(m models.Model, n int, dtype string) (reps []serve.Replica, devs []*device.Device, mode string, err error) {
	var wdt tensor.DType
	mode = "eager f64"
	if dtype != "" {
		if wdt, err = tensor.ParseDType(dtype); err != nil {
			return nil, nil, "", err
		}
		mode = "compiled " + wdt.String()
	}
	reps = make([]serve.Replica, n)
	devs = make([]*device.Device, n)
	for i := range reps {
		devs[i] = device.New(fmt.Sprintf("cuda:%d", i), device.RTX2080Ti())
		if dtype != "" {
			reps[i] = serve.NewCompiledModelReplica(m, devs[i], wdt)
		} else {
			reps[i] = serve.NewModelReplica(m, devs[i])
		}
	}
	return reps, devs, mode, nil
}
