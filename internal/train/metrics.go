package train

import (
	"fmt"
	"strings"

	"repro/internal/ag"
	"repro/internal/datasets"
	"repro/internal/device"
	"repro/internal/fw"
	"repro/internal/models"
	"repro/internal/tensor"
)

// Confusion is a class-by-class confusion matrix: Counts[true][predicted].
type Confusion struct {
	Classes int
	Counts  [][]int
}

// NewConfusion returns an empty matrix over the given class count.
func NewConfusion(classes int) *Confusion {
	c := &Confusion{Classes: classes, Counts: make([][]int, classes)}
	for i := range c.Counts {
		c.Counts[i] = make([]int, classes)
	}
	return c
}

// Add records one (true, predicted) observation.
func (c *Confusion) Add(truth, pred int) { c.Counts[truth][pred]++ }

// Total returns the number of observations.
func (c *Confusion) Total() int {
	n := 0
	for _, row := range c.Counts {
		for _, v := range row {
			n += v
		}
	}
	return n
}

// Accuracy returns the trace fraction.
func (c *Confusion) Accuracy() float64 {
	total := c.Total()
	if total == 0 {
		return 0
	}
	correct := 0
	for i := 0; i < c.Classes; i++ {
		correct += c.Counts[i][i]
	}
	return float64(correct) / float64(total)
}

// PrecisionRecallF1 returns the per-class precision, recall and F1 score for
// class k (zero where undefined).
func (c *Confusion) PrecisionRecallF1(k int) (precision, recall, f1 float64) {
	var tp, fp, fn int
	tp = c.Counts[k][k]
	for i := 0; i < c.Classes; i++ {
		if i != k {
			fp += c.Counts[i][k]
			fn += c.Counts[k][i]
		}
	}
	if tp+fp > 0 {
		precision = float64(tp) / float64(tp+fp)
	}
	if tp+fn > 0 {
		recall = float64(tp) / float64(tp+fn)
	}
	if precision+recall > 0 {
		f1 = 2 * precision * recall / (precision + recall)
	}
	return precision, recall, f1
}

// MacroF1 averages the per-class F1 scores.
func (c *Confusion) MacroF1() float64 {
	var sum float64
	for k := 0; k < c.Classes; k++ {
		_, _, f1 := c.PrecisionRecallF1(k)
		sum += f1
	}
	return sum / float64(c.Classes)
}

// String renders the matrix with row = true class.
func (c *Confusion) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "confusion (%d classes, %d samples, acc %.3f, macro-F1 %.3f)\n",
		c.Classes, c.Total(), c.Accuracy(), c.MacroF1())
	for i, row := range c.Counts {
		fmt.Fprintf(&b, "  true %d: %v\n", i, row)
	}
	return b.String()
}

// evalLogits is m's eval-mode forward on b: every validation, test and
// prediction pass in this package. The tape is heap-backed (not
// models.Infer's pooled one), so the logits outlive its Finish and a training
// process parks nothing in the tensor pool.
func evalLogits(m models.Model, b *fw.Batch, dev *device.Device) *tensor.Tensor {
	g := ag.New(dev)
	defer g.Finish()
	return m.Forward(g, b, false, nil).Value()
}

// PredictNode runs the model in eval mode over a node-classification dataset
// and returns the predicted class per node.
func PredictNode(m models.Model, d *datasets.Dataset, dev *device.Device) []int {
	be := m.Backend()
	b := be.Batch(d.Graphs, dev)
	defer b.Release(dev)
	return tensor.ArgMaxRows(evalLogits(m, b, dev))
}

// ConfusionNode evaluates a node classifier over the given node indices.
func ConfusionNode(m models.Model, d *datasets.Dataset, idx []int, dev *device.Device) *Confusion {
	pred := PredictNode(m, d, dev)
	c := NewConfusion(d.NumClasses)
	labels := d.Graphs[0].Y
	for _, i := range idx {
		c.Add(labels[i], pred[i])
	}
	return c
}

// PredictGraphs runs the model in eval mode over the indexed graphs and
// returns one predicted class per graph.
func PredictGraphs(m models.Model, d *datasets.Dataset, idx []int, batchSize int, dev *device.Device) []int {
	preds := make([]int, len(idx))
	ranges := batchRanges(len(idx), batchSize)
	evalBatches(m, d, idx, ranges, dev, func(bi int, _ *fw.Batch, logits *tensor.Tensor) {
		copy(preds[ranges[bi][0]:ranges[bi][1]], tensor.ArgMaxRows(logits))
	})
	return preds
}

// ConfusionGraphs evaluates a graph classifier over the indexed graphs.
func ConfusionGraphs(m models.Model, d *datasets.Dataset, idx []int, batchSize int, dev *device.Device) *Confusion {
	pred := PredictGraphs(m, d, idx, batchSize, dev)
	c := NewConfusion(d.NumClasses)
	for k, i := range idx {
		c.Add(d.Graphs[i].Label, pred[k])
	}
	return c
}
