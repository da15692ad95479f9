package ag

import (
	"fmt"
	"math"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// CrossEntropy returns the mean cross-entropy between row logits and integer
// class labels, computed with a fused, numerically stable
// log-softmax + negative log likelihood. rows selects which rows contribute
// (nil means all); node-classification tasks pass the training mask here.
func (g *Graph) CrossEntropy(logits *Node, labels []int, rows []int) *Node {
	check2("CrossEntropy", logits)
	n, c := logits.T.Rows(), logits.T.Cols()
	if len(labels) != n {
		panic(fmt.Sprintf("ag: CrossEntropy got %d labels for %d rows", len(labels), n))
	}
	if rows == nil {
		rows = make([]int, n)
		for i := range rows {
			rows[i] = i
		}
	}
	if len(rows) == 0 {
		panic("ag: CrossEntropy over zero rows")
	}
	for _, i := range rows {
		if i < 0 || i >= n {
			panic(fmt.Sprintf("ag: CrossEntropy row %d out of range [0,%d)", i, n))
		}
		if l := labels[i]; l < 0 || l >= c {
			panic(fmt.Sprintf("ag: label %d out of range [0,%d)", l, c))
		}
	}
	sz := int64(len(rows) * c)
	// Softmax probabilities for the selected rows, saved for backward; the
	// per-row NLL scratch is recorded once and reused by every replay. All
	// three are acquired inside the kernel on the first run.
	var probs, out *tensor.Tensor
	var nll []float64
	fwd := func() {
		if out == nil {
			probs = g.get(len(rows), c)
			out = g.get(1)
			nll = make([]float64, len(rows))
		}
		parallel.For(len(rows), parallel.RowGrain(5*c), lossArgs{dst: probs.Data, x: logits.T.Data, nll: nll, rows: rows, labels: labels, c: c}, ceForwardRange)
		var total float64
		for _, v := range nll {
			total += v
		}
		out.Data[0] = total / float64(len(rows))
	}
	g.run(5*sz, 24*sz, fwd)
	g.alloc(probs)
	res := g.node(out, logits.requiresGrad, "crossentropy", nil)
	res.fwd, res.flops, res.bytes = fwd, 5*sz, 24*sz
	res.backward = func(gr *Graph) {
		// gx starts zeroed; unselected rows contribute no gradient.
		var gx *tensor.Tensor
		gr.run(2*sz, 24*sz, func() {
			gx = gr.zeroTempLike(logits.T)
			scale := res.grad.Data[0] / float64(len(rows))
			avg := (len(rows)*c)/n + 1
			parallel.For(n, parallel.RowGrain(avg), lossArgs{dst: gx.Data, x: probs.Data, rows: rows, labels: labels, scale: scale, c: c}, ceGradRange)
		})
		gr.give(logits, gx)
	}
	return res
}

// lossArgs is a cross-entropy kernel's operands: c-wide rows of x, the
// selected rows and their labels, written to dst (and nll, one per row).
type lossArgs struct {
	dst, x, nll  []float64
	rows, labels []int
	scale        float64
	c            int
}

func ceForwardRange(k lossArgs, lo, hi int) {
	probs, logits, nll, rows, labels, c := k.dst, k.x, k.nll, k.rows, k.labels, k.c
	for k := lo; k < hi; k++ {
		i := rows[k]
		row := logits[i*c : (i+1)*c]
		m := math.Inf(-1)
		for _, v := range row {
			if v > m {
				m = v
			}
		}
		var z float64
		prow := probs[k*c : (k+1)*c]
		for j, v := range row {
			e := math.Exp(v - m)
			prow[j] = e
			z += e
		}
		for j := range prow {
			prow[j] /= z
		}
		nll[k] = -math.Log(math.Max(prow[labels[i]], 1e-300))
	}
}

func ceGradRange(k lossArgs, lo, hi int) {
	gx, probs, rows, labels, scale, c := k.dst, k.x, k.rows, k.labels, k.scale, k.c
	for k, i := range rows {
		if i < lo || i >= hi {
			continue
		}
		prow := probs[k*c : (k+1)*c]
		xrow := gx[i*c : (i+1)*c]
		for j := 0; j < c; j++ {
			xrow[j] = scale * prow[j]
		}
		xrow[labels[i]] -= scale
	}
}

// Accuracy returns the fraction of the selected rows whose argmax matches the
// label. rows nil means all rows. This is a metric, not a differentiable op.
func Accuracy(logits *tensor.Tensor, labels []int, rows []int) float64 {
	pred := tensor.ArgMaxRows(logits)
	if rows == nil {
		rows = make([]int, logits.Rows())
		for i := range rows {
			rows[i] = i
		}
	}
	if len(rows) == 0 {
		return 0
	}
	correct := 0
	for _, i := range rows {
		if pred[i] == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(rows))
}
