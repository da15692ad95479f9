// Package tensor implements a small dense tensor library: row-major float64
// tensors with the elementwise, matrix, reduction and row-indexing operations
// that a graph neural network training stack needs.
//
// Shape errors are programmer errors and panic with a descriptive message;
// every exported operation documents its shape contract. All operations are
// deterministic. Randomness is provided by the seeded RNG in this package so
// experiments reproduce bit-for-bit.
package tensor

import (
	"fmt"
	"math"
	"strings"
)

// Tensor is a dense row-major float64 tensor. Rank 1 and 2 cover everything a
// GNN needs ([N] vectors, [N,F] feature matrices); a few ops accept rank-0
// scalars represented as shape [1].
//
// Tensors whose backing buffer came from the buffer pool (see Get/Release)
// carry a released flag so reads after Release can be caught in tests.
type Tensor struct {
	Data  []float64
	shape []int

	// shapeArr inlines the shape storage for rank <= 4 so pooled tensors can
	// be reshaped without allocating. shape points into it (or, for deeper
	// ranks, into a heap slice).
	shapeArr [4]int
	released bool
}

// setShape copies shape into the tensor's inline shape storage (heap for the
// rare rank > 4 case). The argument slice is never retained.
func (t *Tensor) setShape(shape []int) {
	if len(shape) <= len(t.shapeArr) {
		n := copy(t.shapeArr[:], shape)
		t.shape = t.shapeArr[:n]
		return
	}
	t.shape = append([]int(nil), shape...)
}

// New returns a zero tensor with the given shape.
func New(shape ...int) *Tensor {
	n := checkShape(shape)
	t := &Tensor{Data: make([]float64, n)}
	t.setShape(shape)
	return t
}

// NewLike returns a zero tensor with t's shape.
func NewLike(t *Tensor) *Tensor {
	c := &Tensor{Data: make([]float64, len(t.Data))}
	c.setShape(t.shape)
	return c
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); it must have exactly prod(shape) elements.
//
//gnnvet:allow unreachable -- TestBackwardSimpleChain
func FromSlice(data []float64, shape ...int) *Tensor {
	n := checkShape(shape)
	if len(data) != n {
		panic(fmt.Sprintf("tensor: FromSlice got %d elements for shape %v (want %d)", len(data), shape, n))
	}
	t := &Tensor{Data: data}
	t.setShape(shape)
	return t
}

// Full returns a tensor with every element set to v.
func Full(v float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = v
	}
	return t
}

// Ones returns a tensor of ones.
func Ones(shape ...int) *Tensor { return Full(1, shape...) }

func checkShape(shape []int) int {
	if len(shape) == 0 {
		panic("tensor: empty shape")
	}
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension in shape %v", shape))
		}
		// Guard the element-count product against wrap-around: adversarial
		// shapes (fuzzed checkpoints, corrupt graph input) must fail loudly
		// here, not alias a tiny buffer after silent overflow.
		if d > 0 && n > math.MaxInt/d {
			panic(fmt.Sprintf("tensor: shape %v overflows element count", shape))
		}
		n *= d
	}
	return n
}

// Shape returns a copy of the tensor's shape. Callers may freely keep or
// mutate the returned slice; the tensor's own shape storage is never exposed,
// which matters once buffers are pooled and recycled. Hot paths that only
// need dimensions should use Rank/Dim/Rows/Cols, which do not allocate.
func (t *Tensor) Shape() []int { return append([]int(nil), t.shape...) }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Size returns the total number of elements.
func (t *Tensor) Size() int { return len(t.Data) }

// Dim returns the length of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Rows returns the first dimension of a rank-2 tensor (or the length of a
// rank-1 tensor).
func (t *Tensor) Rows() int { return t.shape[0] }

// Cols returns the second dimension of a rank-2 tensor, or 1 for rank-1.
func (t *Tensor) Cols() int {
	if len(t.shape) == 1 {
		return 1
	}
	return t.shape[1]
}

// At returns the element at (i, j) of a rank-2 tensor.
func (t *Tensor) At(i, j int) float64 { return t.Data[i*t.shape[1]+j] }

// Set assigns the element at (i, j) of a rank-2 tensor.
func (t *Tensor) Set(i, j int, v float64) { t.Data[i*t.shape[1]+j] = v }

// Row returns a view (shared storage) of row i of a rank-2 tensor.
func (t *Tensor) Row(i int) []float64 {
	c := t.shape[1]
	return t.Data[i*c : (i+1)*c]
}

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := NewLike(t)
	copy(c.Data, t.Data)
	return c
}

// CopyFrom copies src's data into t. Shapes must match exactly.
func (t *Tensor) CopyFrom(src *Tensor) {
	if !SameShape(t, src) {
		panic(fmt.Sprintf("tensor: CopyFrom shape mismatch %v vs %v", t.shape, src.shape))
	}
	copy(t.Data, src.Data)
}

// Zero sets every element to 0.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float64) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// Reshape returns a tensor sharing t's storage with a new shape of equal size.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := checkShape(shape)
	if n != len(t.Data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (size %d) to %v (size %d)", t.shape, len(t.Data), shape, n))
	}
	r := &Tensor{Data: t.Data}
	r.setShape(shape)
	return r
}

// SameShape reports whether a and b have identical shapes.
func SameShape(a, b *Tensor) bool {
	if len(a.shape) != len(b.shape) {
		return false
	}
	for i := range a.shape {
		if a.shape[i] != b.shape[i] {
			return false
		}
	}
	return true
}

func assertSameShape(op string, a, b *Tensor) {
	if !SameShape(a, b) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, a.shape, b.shape))
	}
}

// String renders small tensors fully and large ones by shape summary.
func (t *Tensor) String() string {
	if t.Size() > 64 {
		return fmt.Sprintf("Tensor%v", t.shape)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Tensor%v", t.shape)
	if t.Rank() == 2 {
		b.WriteString("[")
		for i := 0; i < t.shape[0]; i++ {
			if i > 0 {
				b.WriteString("; ")
			}
			for j := 0; j < t.shape[1]; j++ {
				if j > 0 {
					b.WriteString(" ")
				}
				fmt.Fprintf(&b, "%.4g", t.At(i, j))
			}
		}
		b.WriteString("]")
		return b.String()
	}
	fmt.Fprintf(&b, "%.4g", t.Data)
	return b.String()
}
