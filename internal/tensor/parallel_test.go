package tensor

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/parallel"
)

// parallelWorkerCounts are the pool sizes the determinism tests sweep:
// serial, two odd multi-worker counts, and the machine's GOMAXPROCS.
func parallelWorkerCounts() []int {
	counts := []int{1, 2, 3}
	if p := runtime.GOMAXPROCS(0); p > 3 {
		counts = append(counts, p)
	}
	return counts
}

func bitIdentical(a, b *Tensor) bool {
	if !SameShape(a, b) {
		return false
	}
	for i := range a.Data {
		if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// TestParallelKernelsBitIdenticalToSerial sweeps every parallelized tensor
// kernel over worker counts {1, 2, 3, GOMAXPROCS} on odd sizes chosen so the
// pool genuinely splits the work, asserting bitwise-equal float64 output.
func TestParallelKernelsBitIdenticalToSerial(t *testing.T) {
	rng := NewRNG(7)
	// Odd matmul shapes with rows cheap enough to split across chunks.
	a := rng.Randn(1, 37, 129)
	b := rng.Randn(1, 129, 61)
	at := Transpose(a) // [129, 37]
	bt := Transpose(b) // [61, 129]
	// Zeros exercise the av == 0 skip path in the matmul kernels.
	for i := 0; i < len(a.Data); i += 11 {
		a.Data[i] = 0
	}
	// Elementwise operands above the serial threshold (129*257 > MinWork).
	big := rng.Randn(1, 129, 257)
	big2 := rng.Randn(1, 129, 257)
	rowv := rng.Randn(1, 257)
	colv := rng.Randn(1, 129)
	v := rng.Randn(1, 129)
	// Gather/scatter index sets with repeats, landing on 51 destinations.
	idx := make([]int, 4001)
	for i := range idx {
		idx[i] = rng.IntN(51)
	}
	gsrc := rng.Randn(1, len(idx), 33)

	cases := []struct {
		name string
		f    func() *Tensor
	}{
		{"MatMul", func() *Tensor { return MatMul(a, b) }},
		{"MatMulTA", func() *Tensor { return MatMulTA(at, b) }},
		{"MatMulTB", func() *Tensor { return MatMulTB(a, bt) }},
		{"Transpose", func() *Tensor { return Transpose(big) }},
		{"MatVec", func() *Tensor { return MatVec(a, v) }},
		{"Outer", func() *Tensor { return Outer(colv, rowv) }},
		{"Add", func() *Tensor { return Add(big, big2) }},
		{"Sub", func() *Tensor { return Sub(big, big2) }},
		{"Mul", func() *Tensor { return Mul(big, big2) }},
		{"Div", func() *Tensor { return Div(big, big2) }},
		{"Scale", func() *Tensor { return Scale(big, 1.7) }},
		{"AddScalar", func() *Tensor { return AddScalar(big, -0.3) }},
		{"AddInPlace", func() *Tensor { c := big.Clone(); AddInPlace(c, big2); return c }},
		{"AddScaled", func() *Tensor { c := big.Clone(); AddScaled(c, 0.9, big2); return c }},
		{"ScaleInPlace", func() *Tensor { c := big.Clone(); ScaleInPlace(c, 2.3); return c }},
		{"Sigmoid", func() *Tensor { return Sigmoid(big) }},
		{"Exp", func() *Tensor { return Exp(big) }},
		{"AddRowVector", func() *Tensor { return AddRowVector(big, rowv) }},
		{"MulRowVector", func() *Tensor { return MulRowVector(big, rowv) }},
		{"MulColVector", func() *Tensor { return MulColVector(big, colv) }},
		{"GatherRows", func() *Tensor { return GatherRows(gsrc, idx[:51]) }},
		{"ScatterAddRows", func() *Tensor { return ScatterAddRows(gsrc, idx, 51) }},
		{"SumCols", func() *Tensor { return SumCols(big) }},
		{"MaxCols", func() *Tensor { m, _ := MaxCols(big); return m }},
		{"SoftmaxRows", func() *Tensor { return SoftmaxRows(big) }},
		{"LogSoftmaxRows", func() *Tensor { return LogSoftmaxRows(big) }},
		{"L2NormRows", func() *Tensor { return L2NormRows(big) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prev := parallel.SetWorkers(1)
			defer parallel.SetWorkers(prev)
			want := tc.f()
			for _, w := range parallelWorkerCounts()[1:] {
				parallel.SetWorkers(w)
				got := tc.f()
				if !bitIdentical(want, got) {
					t.Fatalf("%s: %d-worker result differs from serial (max diff %g)",
						tc.name, w, MaxAbsDiff(want, got))
				}
			}
		})
	}
}
