package ag

import (
	"fmt"

	"repro/internal/tensor"
)

// aggOut is a destination-row aggregation's output buffer and the epilogue
// its kernel applies, kept together so the op's closure captures one
// pointer.
type aggOut struct {
	out *tensor.Tensor
	ep  tensor.Epilogue
}

// Epilogue returns GCN's layer tail over agg: row v times scale[v] when
// scale is not nil, plus bias when bias is not nil, then ReLU when relu is
// set. agg is consumed: read the returned node afterwards, not agg.
//
// A training tape records ScaleRows, AddBias and ReLU. So does an inference
// tape, unless agg is the output of its last op and that op is a
// destination-row aggregation (GatherScatter, GSpMMSum). Then the
// aggregation's kernel runs the three steps on each row before it stores it
// (tensor.Epilogue), and agg's buffer holds the result. The device is still
// charged scalerows, addbias and relu after the aggregation, with their work
// and their outputs' bytes, so the kernel stream, PeakBytes and every bit
// match the chain. The aggregation has already run once when Epilogue is
// called: on this recording pass the first of those charged kernels
// finishes its rows in one pass, and replays run nothing else.
func (g *Graph) Epilogue(agg *Node, scale *tensor.Tensor, bias *Node, relu bool) *Node {
	if !g.inference || agg.epi == nil || g.lastOp() != agg {
		x := agg
		if scale != nil {
			x = g.ScaleRows(x, scale)
		}
		if bias != nil {
			x = g.AddBias(x, bias)
		}
		if relu {
			x = g.ReLU(x)
		}
		return x
	}
	rows, f := agg.T.Rows(), agg.T.Cols()
	ep := tensor.Epilogue{ReLU: relu}
	if scale != nil {
		if scale.Size() != rows {
			panic(fmt.Sprintf("ag: ScaleRows wants %d scales, got %v", rows, scale.Shape()))
		}
		ep.Scale = scale.Data
	}
	if bias != nil {
		if bias.T.Size() != f {
			panic("tensor: AddRowVectorInto vector width mismatch")
		}
		ep.Bias = bias.T.Data
	}
	*agg.epi = ep
	n := int64(agg.T.Size())
	host := func() { tensor.EpilogueInPlace(agg.T, ep) }
	charge := func(label string, flops, bytes int64) {
		g.deviceOnly(label, flops, bytes, 8*n, host)
		host = nop
	}
	if scale != nil {
		charge("scalerows", n, 24*n)
	}
	if bias != nil {
		charge("addbias", n, 24*n)
	}
	if relu {
		charge("relu", n, 16*n)
	}
	return agg
}

// lastOp returns the tape's last node that runs a kernel, passing over
// inputs and parameters, or nil.
func (g *Graph) lastOp() *Node {
	for i := len(g.tape) - 1; i >= 0; i-- {
		if g.tape[i].fwd != nil {
			return g.tape[i]
		}
	}
	return nil
}
