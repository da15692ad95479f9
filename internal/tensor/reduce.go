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

// Norm returns the Frobenius norm of t.
func Norm(t *Tensor) float64 {
	var s float64
	for _, v := range t.Data {
		s += float64(v * v)
	}
	return math.Sqrt(s)
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
			std.Data[j] += float64(d * d)
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
