package repro

import (
	"bytes"
	"testing"

	"repro/internal/profile"
)

// newLayerTimes keeps bench_test free of a direct profile import at call sites.
func newLayerTimes() *profile.LayerTimes { return profile.NewLayerTimes() }

func TestFacadeEndToEnd(t *testing.T) {
	cora := LoadCora(DataOptions{Seed: 1, Scale: 0.08})
	m := NewModel("GCN", NewPyG(), ModelConfig{
		Task: NodeClassification, In: cora.NumFeatures, Hidden: 8,
		Classes: cora.NumClasses, Layers: 2, Seed: 1,
	})
	res := TrainNode(m, cora, NodeOptions{Epochs: 15, LR: 0.01, Device: NewDevice()})
	if res.TestAcc <= 1.0/float64(cora.NumClasses) {
		t.Fatalf("facade training failed: acc %v", res.TestAcc)
	}
	if len(ModelNames()) != 6 {
		t.Fatal("six architectures expected")
	}
	if NewGPUCluster(4).Size() != 4 {
		t.Fatal("cluster size wrong")
	}
}

func TestFacadeGraphCV(t *testing.T) {
	d := LoadEnzymes(DataOptions{Seed: 1, Scale: 0.06})
	be := NewDGL()
	res := TrainGraphCV(func(seed uint64) Model {
		return NewModel("GCN", be, ModelConfig{
			Task: GraphClassification, In: d.NumFeatures, Hidden: 8, Out: 8,
			Classes: d.NumClasses, Layers: 2, Seed: seed,
		})
	}, d, 3, 3, GraphOptions{BatchSize: 16, InitLR: 5e-3, MaxEpochs: 3, Device: NewDevice()})
	if len(res.Folds) != 3 || res.Framework != "DGL" {
		t.Fatalf("facade CV wrong: %+v", res)
	}
}

func TestFacadeCheckpointAndMetrics(t *testing.T) {
	cora := LoadCora(DataOptions{Seed: 1, Scale: 0.08})
	m := NewModel("GCN", NewPyG(), ModelConfig{
		Task: NodeClassification, In: cora.NumFeatures, Hidden: 8,
		Classes: cora.NumClasses, Layers: 2, Seed: 1,
	})
	TrainNode(m, cora, NodeOptions{Epochs: 10, LR: 0.01})

	var buf bytes.Buffer
	if err := SaveModel(&buf, m); err != nil {
		t.Fatal(err)
	}
	clone := NewModel("GCN", NewPyG(), ModelConfig{
		Task: NodeClassification, In: cora.NumFeatures, Hidden: 8,
		Classes: cora.NumClasses, Layers: 2, Seed: 99,
	})
	if err := LoadModel(&buf, clone); err != nil {
		t.Fatal(err)
	}
	for i, p := range m.Params() {
		q := clone.Params()[i]
		for j := range p.Value.Data {
			if p.Value.Data[j] != q.Value.Data[j] {
				t.Fatalf("restored parameter %s differs at %d", p.Name, j)
			}
		}
	}
	c := EvalConfusionNode(m, cora, cora.TestIdx, nil)
	if c.Total() != len(cora.TestIdx) {
		t.Fatalf("confusion total %d", c.Total())
	}
}
