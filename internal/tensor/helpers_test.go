package tensor

import (
	"fmt"
	"math"

	"repro/internal/parallel"
)

// The allocating forms and reference kernels below are test tooling: no
// binary calls them, and the package's tests use them to build inputs and
// expected values for the kernels that ship.

// Add returns a + b elementwise.
func Add(a, b *Tensor) *Tensor {
	out := New(a.shape...)
	AddInto(out, a, b)
	return out
}

// Sub returns a - b elementwise.
func Sub(a, b *Tensor) *Tensor {
	out := New(a.shape...)
	SubInto(out, a, b)
	return out
}

// Mul returns a * b elementwise (Hadamard product).
func Mul(a, b *Tensor) *Tensor {
	out := New(a.shape...)
	MulInto(out, a, b)
	return out
}

// Div returns a / b elementwise.
func Div(a, b *Tensor) *Tensor {
	out := New(a.shape...)
	DivInto(out, a, b)
	return out
}

// Scale returns s * t.
func Scale(t *Tensor, s float64) *Tensor {
	out := New(t.shape...)
	ScaleInto(out, t, s)
	return out
}

// AddScalar returns t + s elementwise.
func AddScalar(t *Tensor, s float64) *Tensor {
	out := New(t.shape...)
	AddScalarInto(out, t, s)
	return out
}

// Neg returns -t.
func Neg(t *Tensor) *Tensor { return Scale(t, -1) }

// Square returns t*t elementwise.
func Square(t *Tensor) *Tensor {
	out := New(t.shape...)
	SquareInto(out, t)
	return out
}

// Sigmoid returns the logistic function of t elementwise.
func Sigmoid(t *Tensor) *Tensor {
	out := New(t.shape...)
	SigmoidInto(out, t)
	return out
}

// ReLU returns max(0, t) elementwise.
func ReLU(t *Tensor) *Tensor {
	out := New(t.shape...)
	ReLUInto(out, t)
	return out
}

// LeakyReLU returns t where t>0 and slope*t elsewhere.
func LeakyReLU(t *Tensor, slope float64) *Tensor {
	out := New(t.shape...)
	LeakyReLUInto(out, t, slope)
	return out
}

// ELU returns t where t>0 and alpha*(e^t-1) elsewhere.
func ELU(t *Tensor, alpha float64) *Tensor {
	out := New(t.shape...)
	ELUInto(out, t, alpha)
	return out
}

// AddRowVector returns m with v added to every row. m is [N,F], v is [F] (or [1,F]).
func AddRowVector(m, v *Tensor) *Tensor {
	out := New(m.shape...)
	AddRowVectorInto(out, m, v)
	return out
}

// MulRowVector returns m with every row multiplied elementwise by v.
func MulRowVector(m, v *Tensor) *Tensor {
	out := New(m.shape...)
	MulRowVectorInto(out, m, v)
	return out
}

// MulColVector returns m ([N,F]) with row i scaled by v[i] (v is [N]).
func MulColVector(m, v *Tensor) *Tensor {
	out := New(m.shape...)
	MulColVectorInto(out, m, v)
	return out
}

// GatherRows returns out[k] = t[idx[k]] for an [N,F] tensor, giving
// [len(idx), F]. Indices may repeat; they must be in [0, N).
func GatherRows(t *Tensor, idx []int) *Tensor {
	out := New(len(idx), t.Cols())
	GatherRowsInto(out, t, idx)
	return out
}

// ScatterAddRows returns an [n,F] tensor with src's rows summed into the rows
// named by idx: out[idx[k]] += src[k]. src is [len(idx), F].
func ScatterAddRows(src *Tensor, idx []int, n int) *Tensor {
	out := New(n, src.Cols())
	ScatterAddRowsInto(out, src, idx)
	return out
}

// ConcatCols concatenates rank-2 tensors with equal row counts along the
// column axis: [N,F1], [N,F2], ... -> [N, F1+F2+...].
func ConcatCols(ts ...*Tensor) *Tensor {
	if len(ts) == 0 {
		panic("tensor: ConcatCols of nothing")
	}
	total := 0
	for _, t := range ts {
		total += t.Cols()
	}
	out := New(ts[0].Rows(), total)
	ConcatColsInto(out, ts...)
	return out
}

// SplitCols is the inverse of ConcatCols: it slices an [N, ΣFi] tensor into
// tensors of widths fs.
func SplitCols(t *Tensor, fs ...int) []*Tensor {
	outs := make([]*Tensor, len(fs))
	for k, f := range fs {
		outs[k] = New(t.Rows(), f)
	}
	SplitColsInto(outs, t)
	return outs
}

// RepeatRows returns an [N*k, F] tensor where each row of t appears k times
// consecutively.
func RepeatRows(t *Tensor, k int) *Tensor {
	assertRank2("RepeatRows", t)
	n, f := t.Rows(), t.Cols()
	out := New(n*k, f)
	for i := 0; i < n; i++ {
		row := t.Data[i*f : (i+1)*f]
		for r := 0; r < k; r++ {
			copy(out.Data[(i*k+r)*f:(i*k+r+1)*f], row)
		}
	}
	return out
}

// MatMul returns a @ b for rank-2 tensors [M,K] @ [K,N] -> [M,N].
func MatMul(a, b *Tensor) *Tensor {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatMul wants rank-2 operands, got %v and %v", a.Shape(), b.Shape()))
	}
	if a.Dim(1) != b.Dim(0) {
		panic(fmt.Sprintf("tensor: MatMul inner dimension mismatch %v @ %v", a.Shape(), b.Shape()))
	}
	out := New(a.Dim(0), b.Dim(1))
	MatMulInto(out, a, b)
	return out
}

// MatMulTA returns aᵀ @ b for a [K,M], b [K,N] -> [M,N], without
// materializing the transpose.
func MatMulTA(a, b *Tensor) *Tensor {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatMulTA wants rank-2 operands, got %v and %v", a.Shape(), b.Shape()))
	}
	if a.Dim(0) != b.Dim(0) {
		panic(fmt.Sprintf("tensor: MatMulTA dimension mismatch %v and %v", a.Shape(), b.Shape()))
	}
	out := New(a.Dim(1), b.Dim(1))
	MatMulTAInto(out, a, b)
	return out
}

// MatMulTB returns a @ bᵀ for a [M,K], b [N,K] -> [M,N], without
// materializing the transpose.
func MatMulTB(a, b *Tensor) *Tensor {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatMulTB wants rank-2 operands, got %v and %v", a.Shape(), b.Shape()))
	}
	if a.Dim(1) != b.Dim(1) {
		panic(fmt.Sprintf("tensor: MatMulTB dimension mismatch %v and %v", a.Shape(), b.Shape()))
	}
	out := New(a.Dim(0), b.Dim(0))
	MatMulTBInto(out, a, b)
	return out
}

// Transpose returns the transpose of a rank-2 tensor.
func Transpose(t *Tensor) *Tensor {
	if t.Rank() != 2 {
		panic(fmt.Sprintf("tensor: Transpose wants rank 2, got %v", t.Shape()))
	}
	m, n := t.Dim(0), t.Dim(1)
	out := New(n, m)
	parallel.For(n, parallel.RowGrain(m), rowArgs{dst: out.Data, a: t.Data, f: n}, transposeRange)
	return out
}

func transposeRange(k rowArgs, lo, hi int) {
	dst, t, n := k.dst, k.a, k.f
	m := len(t) / n
	for j := lo; j < hi; j++ {
		orow := dst[j*m : (j+1)*m]
		for i := 0; i < m; i++ {
			orow[i] = t[i*n+j]
		}
	}
}

// SumRows reduces an [N,F] tensor over rows, returning [F].
func SumRows(t *Tensor) *Tensor {
	out := New(t.Cols())
	SumRowsInto(out, t)
	return out
}

// SumCols reduces an [N,F] tensor over columns, returning [N] row sums.
func SumCols(t *Tensor) *Tensor {
	out := New(t.Rows())
	SumColsInto(out, t)
	return out
}

// SoftmaxRows returns the row-wise softmax of an [N,F] tensor, computed with
// the max-subtraction trick for numerical stability.
func SoftmaxRows(t *Tensor) *Tensor {
	n, f := t.Rows(), t.Cols()
	out := New(t.shape...)
	parallel.For(n, parallel.RowGrain(4*f), rowArgs{dst: out.Data, a: t.Data, f: f}, softmaxRowsRange)
	return out
}

func softmaxRowsRange(k rowArgs, lo, hi int) {
	out, t, f := k.dst, k.a, k.f
	for i := lo; i < hi; i++ {
		row := t[i*f : (i+1)*f]
		dst := out[i*f : (i+1)*f]
		m := math.Inf(-1)
		for _, v := range row {
			if v > m {
				m = v
			}
		}
		var z float64
		for j, v := range row {
			e := math.Exp(v - m)
			dst[j] = e
			z += e
		}
		for j := range dst {
			dst[j] /= z
		}
	}
}

// LogSoftmaxRows returns the row-wise log-softmax of an [N,F] tensor.
func LogSoftmaxRows(t *Tensor) *Tensor {
	n, f := t.Rows(), t.Cols()
	out := New(t.shape...)
	parallel.For(n, parallel.RowGrain(4*f), rowArgs{dst: out.Data, a: t.Data, f: f}, logSoftmaxRowsRange)
	return out
}

func logSoftmaxRowsRange(k rowArgs, lo, hi int) {
	out, t, f := k.dst, k.a, k.f
	for i := lo; i < hi; i++ {
		row := t[i*f : (i+1)*f]
		dst := out[i*f : (i+1)*f]
		m := math.Inf(-1)
		for _, v := range row {
			if v > m {
				m = v
			}
		}
		var z float64
		for _, v := range row {
			z += math.Exp(v - m)
		}
		lz := m + math.Log(z)
		for j, v := range row {
			dst[j] = v - lz
		}
	}
}

// L2NormRows returns the [N] per-row Euclidean norms of an [N,F] tensor.
func L2NormRows(t *Tensor) *Tensor {
	n, f := t.Rows(), t.Cols()
	out := New(n)
	parallel.For(n, parallel.RowGrain(2*f), rowArgs{dst: out.Data, a: t.Data, f: f}, l2NormRowsRange)
	return out
}

func l2NormRowsRange(k rowArgs, lo, hi int) {
	out, t, f := k.dst, k.a, k.f
	for i := lo; i < hi; i++ {
		row := t[i*f : (i+1)*f]
		var s float64
		for _, v := range row {
			s += v * v
		}
		out[i] = math.Sqrt(s)
	}
}

// MeanStd returns the mean and (population) standard deviation of each column
// of an [N,F] tensor, as two [F] tensors.
func MeanStd(t *Tensor) (mean, std *Tensor) {
	mean, std = New(t.Cols()), New(t.Cols())
	MeanStdInto(mean, std, t)
	return mean, std
}

// SumColsInto reduces an [N,F] tensor over columns into dst (size N).
func SumColsInto(dst, t *Tensor) {
	n, f := t.Rows(), t.Cols()
	if dst.Size() != n {
		panic(fmt.Sprintf("tensor: SumColsInto dst size %d, want %d", dst.Size(), n))
	}
	parallel.For(n, parallel.RowGrain(f), rowArgs{dst: dst.Data, a: t.Data, f: f}, sumColsRange)
}

func sumColsRange(k rowArgs, lo, hi int) {
	dst, t, f := k.dst, k.a, k.f
	for i := lo; i < hi; i++ {
		row := t[i*f : (i+1)*f]
		var s float64
		for j := 0; j < f; j++ {
			s += row[j]
		}
		dst[i] = s
	}
}

// MulRowVectorInto computes dst = m with every row multiplied elementwise by
// v: m [N,F], v [F]. dst may alias m.
func MulRowVectorInto(dst, m, v *Tensor) {
	f := m.Cols()
	if v.Size() != f {
		panic("tensor: MulRowVectorInto vector width mismatch")
	}
	assertSameShape("MulRowVectorInto", dst, m)
	n := m.Rows()
	parallel.For(n, parallel.RowGrain(f), rowArgs{dst: dst.Data, a: m.Data, b: v.Data, f: f}, mulRowVectorRange)
}

func mulRowVectorRange(k rowArgs, lo, hi int) {
	dst, m, v, f := k.dst, k.a, k.b, k.f
	for i := lo; i < hi; i++ {
		row := m[i*f : (i+1)*f]
		drow := dst[i*f : (i+1)*f]
		for j := 0; j < f; j++ {
			drow[j] = row[j] * v[j]
		}
	}
}

// Bernoulli returns a tensor of 0/1 values, each 1 with probability p.
func (g *RNG) Bernoulli(p float64, shape ...int) *Tensor {
	t := New(shape...)
	g.BernoulliInto(t, p)
	return t
}

// IsPoolPoison reports whether v is the exact poison pattern written by
// Release under SetPoolPoison.
func IsPoolPoison(v float64) bool { return math.Float64bits(v) == poolPoisonBits }

// AddScaled accumulates s*b into a (a += s*b).
func AddScaled(a *Tensor, s float64, b *Tensor) {
	assertSameShape("AddScaled", a, b)
	parallel.For(len(a.Data), elemGrain, ew{dst: a.Data, a: b.Data, s: s}, addScaledRange)
}

func addScaledRange(k ew, lo, hi int) {
	a, b, s := k.dst[lo:hi], k.a[lo:hi], k.s
	for i := range a {
		a[i] += s * b[i]
	}
}
