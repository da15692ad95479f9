package train

import (
	"math"
	"strings"
	"testing"

	"repro/internal/fw/pygeo"
	"repro/internal/parallel"
)

func TestConfusionBasics(t *testing.T) {
	c := NewConfusion(3)
	// class 0: 2 right, 1 predicted as 1; class 1: 1 right; class 2: 1 as 0.
	c.Add(0, 0)
	c.Add(0, 0)
	c.Add(0, 1)
	c.Add(1, 1)
	c.Add(2, 0)
	if c.Total() != 5 {
		t.Fatalf("total %d", c.Total())
	}
	if math.Abs(c.Accuracy()-0.6) > 1e-12 {
		t.Fatalf("accuracy %v", c.Accuracy())
	}
	p, r, f1 := c.PrecisionRecallF1(0)
	if math.Abs(p-2.0/3) > 1e-12 || math.Abs(r-2.0/3) > 1e-12 || math.Abs(f1-2.0/3) > 1e-12 {
		t.Fatalf("class 0 prf = %v %v %v", p, r, f1)
	}
	// Class 2 never predicted: precision/recall/F1 all 0.
	p2, r2, f2 := c.PrecisionRecallF1(2)
	if p2 != 0 || r2 != 0 || f2 != 0 {
		t.Fatalf("class 2 prf = %v %v %v", p2, r2, f2)
	}
	if c.MacroF1() <= 0 || c.MacroF1() >= 1 {
		t.Fatalf("macro F1 %v", c.MacroF1())
	}
	if !strings.Contains(c.String(), "3 classes") {
		t.Fatal("String() missing summary")
	}
}

func TestPredictAndConfusionNode(t *testing.T) {
	d := tinyCora()
	be := pygeo.New()
	m := nodeModel(be, d, 3)
	TrainNode(m, d, NodeOptions{Epochs: 40, LR: 0.01})
	c := ConfusionNode(m, d, d.TestIdx, nil)
	if c.Total() != len(d.TestIdx) {
		t.Fatalf("confusion total %d", c.Total())
	}
	// Confusion accuracy must match the trainer's accuracy computation.
	b := be.Batch(d.Graphs, nil)
	want := evalNodeAcc(m, b, d.TestIdx, nil)
	if math.Abs(c.Accuracy()-want) > 1e-12 {
		t.Fatalf("confusion acc %v != eval acc %v", c.Accuracy(), want)
	}
}

func TestPredictAndConfusionGraphs(t *testing.T) {
	// Four workers evaluate batches at once, and one graph per batch makes
	// many of them: counts shared between batches race under -race and
	// lose increments without it. The interleaving differs per run, so
	// each batch size runs several rounds.
	prev := parallel.SetWorkers(4)
	defer parallel.SetWorkers(prev)
	d := tinyEnzymes()
	m := graphModel("GCN", pygeo.New(), d, 5)
	idx := make([]int, len(d.Graphs))
	for i := range idx {
		idx[i] = i
	}
	for _, bs := range []int{16, 1} {
		want := EvalGraphAcc(m, d, idx, bs, nil)
		for round := 0; round < 10; round++ {
			c := ConfusionGraphs(m, d, idx, bs, nil)
			if c.Total() != len(idx) {
				t.Fatalf("batch size %d, round %d: confusion total %d, want %d", bs, round, c.Total(), len(idx))
			}
			if math.Abs(c.Accuracy()-want) > 1e-12 {
				t.Fatalf("batch size %d, round %d: confusion accuracy disagrees with EvalGraphAcc", bs, round)
			}
		}
	}
}
