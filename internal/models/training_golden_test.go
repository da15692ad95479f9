package models

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ag"
	"repro/internal/datasets"
	"repro/internal/device"
	"repro/internal/fw"
	"repro/internal/fw/dglb"
	"repro/internal/fw/pygeo"
	"repro/internal/optim"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// bitsHash digests the shapes and bit patterns of ts, in order.
func bitsHash(ts ...*tensor.Tensor) string {
	h := sha256.New()
	var buf [8]byte
	for _, t := range ts {
		fmt.Fprint(h, t.Shape())
		for _, v := range t.Data {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

// trainingStepCase is one architecture on one task in the training golden.
type trainingStepCase struct {
	name, task string
	cfg        Config
	batch      func(fw.Backend) *fw.Batch
}

// trainingStepCases lists every architecture New builds, GraphSAGE's
// max-pool aggregator too, on an ENZYMES graph batch and on a node task
// whose loss reads every other node, so the loss gradient's unselected rows
// are covered.
func trainingStepCases() []trainingStepCase {
	d := datasets.Enzymes(datasets.Options{Seed: 1, Scale: 0.05})
	enzymes := func(be fw.Backend) *fw.Batch { return be.Batch(d.Graphs[:4], nil) }
	graph := Config{Task: GraphClassification, In: d.NumFeatures, Hidden: 8, Out: 8,
		Classes: d.NumClasses, Layers: 3, Dropout: 0.2, Heads: 2, Kernels: 2, LearnEps: true, Seed: 5}
	node := Config{Task: NodeClassification, In: 5, Hidden: 8, Classes: 3, Layers: 2,
		Dropout: 0.2, Heads: 2, Kernels: 2, LearnEps: true, Seed: 6}
	nodes := func(be fw.Backend) *fw.Batch { return tinyBatch(be, 12, 4, node.In) }
	var cases []trainingStepCase
	for _, name := range append(everyModel(), "GraphSAGE/maxpool") {
		g, n := graph, node
		if name == "GraphSAGE/maxpool" {
			g.SAGEAggregator, n.SAGEAggregator = "maxpool", "maxpool"
		}
		cases = append(cases,
			trainingStepCase{name: name, task: "graph", cfg: g, batch: enzymes},
			trainingStepCase{name: name, task: "node", cfg: n, batch: nodes})
	}
	return cases
}

// trainingStep runs one eager training step of a fresh model — forward with
// dropout, cross-entropy, Backward, one Adam step — on a fresh 2080Ti and
// renders what it produced: the device's counted work, the loss bits, a
// digest of every parameter gradient, and a digest of the parameters and
// Adam's moments after the step.
func trainingStep(c trainingStepCase, be fw.Backend) string {
	arch := c.name
	if arch == "GraphSAGE/maxpool" {
		arch = "GraphSAGE"
	}
	m := New(arch, be, c.cfg)
	b := c.batch(be)
	labels := b.Labels
	var rows []int
	if c.task == "node" {
		labels = b.NodeLabels
		for v := 0; v < b.NumNodes; v += 2 {
			rows = append(rows, v)
		}
	}
	dev := device.Default()
	adam := optim.NewAdam(m.Params(), 0.01)
	adam.SetDevice(dev)
	adam.ZeroGrad()

	g := ag.New(dev)
	loss := g.CrossEntropy(m.Forward(g, b, true, nil), labels, rows)
	g.Backward(loss)
	lossBits := math.Float64bits(loss.Value().Data[0])
	g.Finish()
	var grads, state []*tensor.Tensor
	for _, p := range m.Params() {
		grads = append(grads, p.Grad)
	}
	adam.Step()
	for _, p := range m.Params() {
		state = append(state, p.Value)
	}
	mom, vel := adam.Moments()
	state = append(append(state, mom...), vel...)

	var out bytes.Buffer
	fmt.Fprintf(&out, "%s/%s/%s\n", c.name, be.Name(), c.task)
	out.WriteString(deviceLine("step", dev.Stats()))
	fmt.Fprintf(&out, "  loss     %016x\n  grads    %s\n  adam     %s\n", lossBits, bitsHash(grads...), bitsHash(state...))
	return out.String()
}

// TestTrainingStepGolden pins what one eager training step computes, bit
// for bit, for every architecture on both backends at one and two workers:
// the loss, every parameter gradient, the parameters and Adam's moments
// after the step, and the kernels, bytes and peak memory the simulated
// device is charged. The resume and replay tests compare the code with
// itself; this file holds it to the results it gave when the file was
// written, so a change to how buffers are drawn or gradients are
// accumulated must leave it untouched.
func TestTrainingStepGolden(t *testing.T) {
	cases := trainingStepCases()
	for _, workers := range []int{1, 2} {
		prev := parallel.SetWorkers(workers)
		var got bytes.Buffer
		for _, be := range []fw.Backend{pygeo.New(), dglb.New()} {
			for _, c := range cases {
				got.WriteString(trainingStep(c, be))
			}
		}
		parallel.SetWorkers(prev)

		path := filepath.Join("testdata", "training_step.golden")
		if *update && workers == 1 {
			if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got.String() != string(want) {
			t.Errorf("training step at %d workers differs from %s (rerun with -update only if training results are meant to change)\ngot:\n%swant:\n%s",
				workers, path, got.String(), want)
		}
	}
}
