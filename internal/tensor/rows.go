package tensor

import (
	"fmt"

	"repro/internal/parallel"
)

// idxArgs is an index-driven row kernel's operands: rows of f columns of x
// (n rows, where the kernel bounds-checks), addressed through idx, land in
// dst; arg, where the kernel keeps one, records a winning index per output
// element. The gather, scatter-add, scatter-max and MaxCols kernels share it.
type idxArgs struct {
	dst, x   []float64
	idx, arg []int
	n, f     int
}

// GatherRowsInto writes out[k] = t[idx[k]] into dst ([len(idx), F]) without
// allocating. Indices may repeat; they must be in [0, N).
func GatherRowsInto(dst, t *Tensor, idx []int) {
	assertRank2("GatherRowsInto", t)
	n, f := t.Rows(), t.Cols()
	if dst.Rows() != len(idx) || dst.Cols() != f {
		panic(fmt.Sprintf("tensor: GatherRowsInto dst %v, want [%d %d]", dst.Shape(), len(idx), f))
	}
	grain := parallel.RowGrain(f)
	parallel.For(len(idx), grain, idxArgs{dst: dst.Data, x: t.Data, idx: idx, n: n, f: f}, gatherRowsRange)
}

func gatherRowsRange(k idxArgs, lo, hi int) {
	dst, t, idx, n, f := k.dst, k.x, k.idx, k.n, k.f
	for k := lo; k < hi; k++ {
		i := idx[k]
		if i < 0 || i >= n {
			panic(fmt.Sprintf("tensor: GatherRows index %d out of range [0,%d)", i, n))
		}
		copy(dst[k*f:(k+1)*f], t[i*f:(i+1)*f])
	}
}

// ScatterAddRowsInto sums src's rows into the rows of dst ([n,F]) named by
// idx: dst[idx[k]] += src[k]. dst is zeroed first.
//
// Parallelism uses destination-row ownership: each worker owns a contiguous
// range of output rows and scans the full index list, accumulating only the
// sources that land in its range. No atomics are needed, and each destination
// element still sums its contributions in increasing k — the serial order —
// so the result is bit-identical for any worker count.
func ScatterAddRowsInto(dst, src *Tensor, idx []int) {
	assertRank2("ScatterAddRowsInto", src)
	if src.Rows() != len(idx) {
		panic(fmt.Sprintf("tensor: ScatterAddRows src has %d rows for %d indices", src.Rows(), len(idx)))
	}
	n, f := dst.Rows(), dst.Cols()
	if dst.Rank() != 2 || f != src.Cols() {
		panic(fmt.Sprintf("tensor: ScatterAddRowsInto dst %v for src %v", dst.Shape(), src.Shape()))
	}
	for _, i := range idx {
		if i < 0 || i >= n {
			panic(fmt.Sprintf("tensor: ScatterAddRows index %d out of range [0,%d)", i, n))
		}
	}
	avg := 1
	if n > 0 {
		avg = (len(idx)*f)/n + 1
	}
	grain := parallel.RowGrain(avg)
	parallel.For(n, grain, idxArgs{dst: dst.Data, x: src.Data, idx: idx, f: f}, scatterAddRowsRange)
}

func scatterAddRowsRange(k idxArgs, lo, hi int) {
	dst, src, idx, f := k.dst, k.x, k.idx, k.f
	zero(dst[lo*f : hi*f])
	for k, i := range idx {
		if i < lo || i >= hi {
			continue
		}
		srow := src[k*f : (k+1)*f]
		drow := dst[i*f : (i+1)*f]
		for j := 0; j < f; j++ {
			drow[j] += srow[j]
		}
	}
}

// ConcatColsInto concatenates same-row-count tensors into dst along the
// column axis without allocating. dst must be [N, ΣFi].
func ConcatColsInto(dst *Tensor, ts ...*Tensor) {
	if len(ts) == 0 {
		panic("tensor: ConcatCols of nothing")
	}
	n := ts[0].Rows()
	total := 0
	for _, t := range ts {
		assertRank2("ConcatColsInto", t)
		if t.Rows() != n {
			panic(fmt.Sprintf("tensor: ConcatCols row mismatch %d vs %d", t.Rows(), n))
		}
		total += t.Cols()
	}
	if dst.Rank() != 2 || dst.Rows() != n || dst.Cols() != total {
		panic(fmt.Sprintf("tensor: ConcatColsInto dst %v, want [%d %d]", dst.Shape(), n, total))
	}
	for i := 0; i < n; i++ {
		off := 0
		drow := dst.Data[i*total : (i+1)*total]
		for _, t := range ts {
			f := t.Cols()
			copy(drow[off:off+f], t.Data[i*f:(i+1)*f])
			off += f
		}
	}
}

// SplitColsInto slices an [N, ΣFi] tensor into the provided destinations,
// whose widths determine the split. The inverse of ConcatColsInto.
func SplitColsInto(dsts []*Tensor, t *Tensor) {
	assertRank2("SplitColsInto", t)
	total := 0
	for _, d := range dsts {
		assertRank2("SplitColsInto", d)
		total += d.Cols()
	}
	if total != t.Cols() {
		panic(fmt.Sprintf("tensor: SplitCols widths sum to %d, tensor has %d columns", total, t.Cols()))
	}
	n := t.Rows()
	off := 0
	for _, d := range dsts {
		if d.Rows() != n {
			panic(fmt.Sprintf("tensor: SplitColsInto dst rows %d, want %d", d.Rows(), n))
		}
		f := d.Cols()
		for i := 0; i < n; i++ {
			copy(d.Data[i*f:(i+1)*f], t.Data[i*t.Cols()+off:i*t.Cols()+off+f])
		}
		off += f
	}
}

// ConcatRows stacks rank-2 tensors with equal column counts along the row
// axis: [N1,F], [N2,F], ... -> [N1+N2+..., F]. This is a bulk memcpy per
// input, which is what makes PyG-style batching cheap.
func ConcatRows(ts ...*Tensor) *Tensor {
	if len(ts) == 0 {
		panic("tensor: ConcatRows of nothing")
	}
	f := ts[0].Cols()
	total := 0
	for _, t := range ts {
		assertRank2("ConcatRows", t)
		if t.Cols() != f {
			panic(fmt.Sprintf("tensor: ConcatRows column mismatch %d vs %d", t.Cols(), f))
		}
		total += t.Rows()
	}
	out := New(total, f)
	off := 0
	for _, t := range ts {
		copy(out.Data[off:off+len(t.Data)], t.Data)
		off += len(t.Data)
	}
	return out
}
