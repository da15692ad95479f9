//go:build !amd64

package tensor

// haveAVX2 is false off amd64: the pure-Go strips run, and nothing calls
// the declarations below, which only keep the callers portable.
var haveAVX2 = false

func mmStrips16(o, b []float64, off []int, coef []float64, fresh bool) {
	panic("tensor: no AVX2 strips on this architecture")
}

func aggStrips16(o, x, w []float64, cols, eids []int, f int, bias []float64, scale float64, epi int) {
	panic("tensor: no AVX2 strips on this architecture")
}

func nonzeroMask(a []float64) uint64 {
	panic("tensor: no AVX2 strips on this architecture")
}
