package ag

import (
	"fmt"
	"math"
)

// GradCheck verifies analytic gradients against central finite differences.
// build must construct the scalar loss from the current parameter values on
// the supplied graph; it is called repeatedly with perturbed parameters.
// Returns an error naming the first parameter element whose analytic and
// numeric gradients disagree beyond rtol/atol.
//
// Every model and op in this repository is validated through this function
// in tests, which is what makes the from-scratch autodiff trustworthy.
//
//gnnvet:allow unreachable -- TestGradCheckAllModels
func GradCheck(params []*Parameter, build func(g *Graph) *Node, h, rtol, atol float64) error {
	for _, p := range params {
		p.ZeroGrad()
	}
	g := New(nil)
	loss := build(g)
	g.Backward(loss)

	lossAt := func() float64 {
		gg := New(nil)
		return build(gg).T.Data[0]
	}

	for _, p := range params {
		for i := range p.Value.Data {
			orig := p.Value.Data[i]
			p.Value.Data[i] = orig + h
			up := lossAt()
			p.Value.Data[i] = orig - h
			down := lossAt()
			p.Value.Data[i] = orig
			numeric := (up - down) / (2 * h)
			analytic := p.Grad.Data[i]
			diff := math.Abs(numeric - analytic)
			if diff > atol+float64(rtol*math.Max(math.Abs(numeric), math.Abs(analytic))) {
				return fmt.Errorf("ag: gradcheck failed for %s[%d]: analytic=%.8g numeric=%.8g (diff %.3g)",
					p.Name, i, analytic, numeric, diff)
			}
		}
	}
	return nil
}
