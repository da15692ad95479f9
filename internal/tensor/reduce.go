package tensor

import (
	"fmt"
	"math"

	"repro/internal/parallel"
)

// Sum returns the sum of all elements.
func Sum(t *Tensor) float64 {
	var s float64
	for _, v := range t.Data {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of all elements.
func Mean(t *Tensor) float64 {
	if t.Size() == 0 {
		return 0
	}
	return Sum(t) / float64(t.Size())
}

// Max returns the largest element.
func Max(t *Tensor) float64 {
	m := math.Inf(-1)
	for _, v := range t.Data {
		if v > m {
			m = v
		}
	}
	return m
}

// Min returns the smallest element.
func Min(t *Tensor) float64 {
	m := math.Inf(1)
	for _, v := range t.Data {
		if v < m {
			m = v
		}
	}
	return m
}

// SumRows reduces an [N,F] tensor over rows, returning [F].
func SumRows(t *Tensor) *Tensor {
	out := New(t.Cols())
	SumRowsInto(out, t)
	return out
}

// MeanRows reduces an [N,F] tensor over rows, returning the [F] column means.
func MeanRows(t *Tensor) *Tensor {
	out := SumRows(t)
	if n := t.Rows(); n > 0 {
		ScaleInPlace(out, 1/float64(n))
	}
	return out
}

// SumCols reduces an [N,F] tensor over columns, returning [N] row sums.
func SumCols(t *Tensor) *Tensor {
	out := New(t.Rows())
	SumColsInto(out, t)
	return out
}

// MaxCols reduces an [N,F] tensor over columns, returning [N] row maxima and
// the per-row argmax indices.
func MaxCols(t *Tensor) (*Tensor, []int) {
	n, f := t.Rows(), t.Cols()
	if f == 0 {
		panic("tensor: MaxCols of zero-width tensor")
	}
	out := New(n)
	arg := make([]int, n)
	parallel.For(n, parallel.RowGrain(f), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := t.Data[i*f : (i+1)*f]
			best, bj := row[0], 0
			for j := 1; j < f; j++ {
				if row[j] > best {
					best, bj = row[j], j
				}
			}
			out.Data[i] = best
			arg[i] = bj
		}
	})
	return out, arg
}

// ArgMaxRows returns, for each row of an [N,F] tensor, the index of its
// largest element.
func ArgMaxRows(t *Tensor) []int {
	_, arg := MaxCols(t)
	return arg
}

// SoftmaxRows returns the row-wise softmax of an [N,F] tensor, computed with
// the max-subtraction trick for numerical stability.
func SoftmaxRows(t *Tensor) *Tensor {
	n, f := t.Rows(), t.Cols()
	out := New(t.shape...)
	parallel.For(n, parallel.RowGrain(4*f), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := t.Data[i*f : (i+1)*f]
			dst := out.Data[i*f : (i+1)*f]
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
	})
	return out
}

// LogSoftmaxRows returns the row-wise log-softmax of an [N,F] tensor.
func LogSoftmaxRows(t *Tensor) *Tensor {
	n, f := t.Rows(), t.Cols()
	out := New(t.shape...)
	parallel.For(n, parallel.RowGrain(4*f), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := t.Data[i*f : (i+1)*f]
			dst := out.Data[i*f : (i+1)*f]
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
	})
	return out
}

// L2NormRows returns the [N] per-row Euclidean norms of an [N,F] tensor.
func L2NormRows(t *Tensor) *Tensor {
	n, f := t.Rows(), t.Cols()
	out := New(n)
	parallel.For(n, parallel.RowGrain(2*f), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := t.Data[i*f : (i+1)*f]
			var s float64
			for _, v := range row {
				s += v * v
			}
			out.Data[i] = math.Sqrt(s)
		}
	})
	return out
}

// Norm returns the Frobenius norm of t.
func Norm(t *Tensor) float64 {
	var s float64
	for _, v := range t.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// MeanStd returns the mean and (population) standard deviation of each column
// of an [N,F] tensor, as two [F] tensors.
func MeanStd(t *Tensor) (mean, std *Tensor) {
	mean, std = New(t.Cols()), New(t.Cols())
	MeanStdInto(mean, std, t)
	return mean, std
}

// SumRowsInto reduces an [N,F] tensor over rows into dst (size F), serially
// in row order. dst is fully overwritten; only its size must match, so [F]
// and [1,F] destinations both work.
func SumRowsInto(dst, t *Tensor) {
	n, f := t.Rows(), t.Cols()
	if dst.Size() != f {
		panic(fmt.Sprintf("tensor: SumRowsInto dst size %d, want %d", dst.Size(), f))
	}
	zero(dst.Data)
	for i := 0; i < n; i++ {
		row := t.Data[i*f : (i+1)*f]
		for j := 0; j < f; j++ {
			dst.Data[j] += row[j]
		}
	}
}

// SumColsInto reduces an [N,F] tensor over columns into dst (size N).
func SumColsInto(dst, t *Tensor) {
	n, f := t.Rows(), t.Cols()
	if dst.Size() != n {
		panic(fmt.Sprintf("tensor: SumColsInto dst size %d, want %d", dst.Size(), n))
	}
	grain := parallel.RowGrain(f)
	if parallel.Inline(n, grain) {
		sumColsRange(dst.Data, t.Data, f, 0, n)
		return
	}
	parallel.For(n, grain, func(lo, hi int) { sumColsRange(dst.Data, t.Data, f, lo, hi) })
}

func sumColsRange(dst, t []float64, f, lo, hi int) {
	for i := lo; i < hi; i++ {
		row := t[i*f : (i+1)*f]
		var s float64
		for j := 0; j < f; j++ {
			s += row[j]
		}
		dst[i] = s
	}
}

// MeanStdInto computes the per-column mean and population standard deviation
// of an [N,F] tensor into the provided [F] buffers: column sums in row order,
// then scale; then squared deviations in row order, then sqrt.
func MeanStdInto(mean, std, t *Tensor) {
	n, f := t.Rows(), t.Cols()
	if mean.Size() != f || std.Size() != f {
		panic(fmt.Sprintf("tensor: MeanStdInto buffers sized %d/%d, want %d", mean.Size(), std.Size(), f))
	}
	zero(mean.Data)
	zero(std.Data)
	for i := 0; i < n; i++ {
		row := t.Data[i*f : (i+1)*f]
		for j := 0; j < f; j++ {
			mean.Data[j] += row[j]
		}
	}
	if n == 0 {
		return
	}
	s := 1 / float64(n)
	for j := 0; j < f; j++ {
		mean.Data[j] *= s
	}
	for i := 0; i < n; i++ {
		row := t.Data[i*f : (i+1)*f]
		for j := 0; j < f; j++ {
			d := row[j] - mean.Data[j]
			std.Data[j] += d * d
		}
	}
	for j := 0; j < f; j++ {
		std.Data[j] = math.Sqrt(std.Data[j] / float64(n))
	}
}

func assertRank2(op string, t *Tensor) {
	if t.Rank() != 2 {
		panic(fmt.Sprintf("tensor: %s wants rank 2, got %v", op, t.Shape()))
	}
}
