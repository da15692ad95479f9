package ag

import (
	"testing"

	"repro/internal/tensor"
)

// expectPanic asserts f panics.
func expectPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic: %s", what)
		}
	}()
	f()
}

func TestOpShapeValidation(t *testing.T) {
	g := New(nil)
	vec := g.Input(tensor.Ones(4))
	mat := g.Input(tensor.Ones(2, 2))

	expectPanic(t, "MatMul rank-1", func() { g.MatMul(vec, mat) })
	expectPanic(t, "Gather on vector", func() { g.Gather(vec, []int{0}) })
	expectPanic(t, "ScatterAdd on vector", func() { g.ScatterAdd(vec, []int{0}, 2) })
	expectPanic(t, "MulBroadcastCol size", func() {
		g.MulBroadcastCol(mat, g.Input(tensor.Ones(3, 1)))
	})
	expectPanic(t, "ScaleRows size", func() { g.ScaleRows(mat, tensor.Ones(3)) })
	expectPanic(t, "ScaleByScalar non-scalar", func() { g.ScaleByScalar(mat, mat) })
	expectPanic(t, "dropout p>=1", func() {
		g.Dropout(mat, 1.0, true, tensor.NewRNG(1))
	})
}

func TestEdgeSoftmaxValidation(t *testing.T) {
	g := New(nil)
	scores := g.Input(tensor.Ones(3, 1))
	expectPanic(t, "edge count mismatch", func() {
		g.EdgeSoftmax(scores, []int{0, 1}, 2)
	})
}

func TestSegmentOffsetValidation(t *testing.T) {
	g := New(nil)
	x := g.Input(tensor.Ones(4, 2))
	expectPanic(t, "offsets not spanning", func() { g.SegmentSum(x, []int{0, 2}) })
	expectPanic(t, "offsets decreasing", func() { g.SegmentSum(x, []int{0, 3, 2, 4}) })
	expectPanic(t, "offsets not starting at zero", func() { g.SegmentSum(x, []int{1, 4}) })
}

func TestCrossEntropyValidation(t *testing.T) {
	g := New(nil)
	logits := g.Input(tensor.Ones(2, 3))
	expectPanic(t, "label count", func() { g.CrossEntropy(logits, []int{0}, nil) })
	expectPanic(t, "label range", func() { g.CrossEntropy(logits, []int{0, 9}, nil) })
	expectPanic(t, "row range", func() { g.CrossEntropy(logits, []int{0, 1}, []int{5}) })
	expectPanic(t, "empty rows", func() { g.CrossEntropy(logits, []int{0, 1}, []int{}) })
}

func TestGatherIndexRange(t *testing.T) {
	g := New(nil)
	x := g.Input(tensor.Ones(2, 2))
	expectPanic(t, "gather out of range", func() { g.Gather(x, []int{2}) })
	expectPanic(t, "scatter out of range", func() { g.ScatterAdd(x, []int{0, 5}, 3) })
}

func TestBatchNormParamValidation(t *testing.T) {
	g := New(nil)
	x := g.Input(tensor.Ones(2, 3))
	gamma := g.Input(tensor.Ones(2)) // wrong width
	beta := g.Input(tensor.Ones(3))
	expectPanic(t, "batchnorm gamma width", func() {
		g.BatchNorm(x, gamma, beta, tensor.New(3), tensor.Ones(3), 0.1, 1e-5, true)
	})
}

func TestGaussianWeightValidation(t *testing.T) {
	g := New(nil)
	mu := g.Input(tensor.Ones(2))
	isig := g.Input(tensor.Ones(3)) // mismatched dim
	expectPanic(t, "gaussian dims", func() {
		g.GaussianWeight(tensor.Ones(4, 2), mu, isig)
	})
}

func TestGSpMMGradThroughChain(t *testing.T) {
	// Fused kernels compose with dense ops in one backward pass.
	src := []int{0, 1, 2, 0}
	dst := []int{1, 2, 0, 2}
	csr := buildTestCSR(3, src, dst)
	w := randParam("w", 42, 2, 2)
	x := tensor.NewRNG(43).Randn(1, 3, 2)
	check(t, []*Parameter{w}, func(g *Graph) *Node {
		h := g.MatMul(g.Input(x), g.Param(w))
		agg := g.GSpMMSum(h, csr.rowptr, csr.col)
		return g.MeanAll(g.Sigmoid(agg))
	})
}

type miniCSR struct{ rowptr, col, eid []int }

func buildTestCSR(n int, src, dst []int) miniCSR {
	rowptr := make([]int, n+1)
	for _, d := range dst {
		rowptr[d+1]++
	}
	for i := 0; i < n; i++ {
		rowptr[i+1] += rowptr[i]
	}
	col := make([]int, len(src))
	eid := make([]int, len(src))
	cur := append([]int(nil), rowptr[:n]...)
	for e := range src {
		d := dst[e]
		col[cur[d]] = src[e]
		eid[cur[d]] = e
		cur[d]++
	}
	return miniCSR{rowptr, col, eid}
}
