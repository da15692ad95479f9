package tensor

import (
	"fmt"

	"repro/internal/parallel"
)

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

// GatherRowsInto writes out[k] = t[idx[k]] into dst ([len(idx), F]) without
// allocating. Indices may repeat; they must be in [0, N).
func GatherRowsInto(dst, t *Tensor, idx []int) {
	assertRank2("GatherRowsInto", t)
	n, f := t.Rows(), t.Cols()
	if dst.Rows() != len(idx) || dst.Cols() != f {
		panic(fmt.Sprintf("tensor: GatherRowsInto dst %v, want [%d %d]", dst.Shape(), len(idx), f))
	}
	grain := parallel.RowGrain(f)
	if parallel.Inline(len(idx), grain) {
		gatherRowsRange(dst.Data, t.Data, idx, n, f, 0, len(idx))
		return
	}
	parallel.For(len(idx), grain, func(lo, hi int) { gatherRowsRange(dst.Data, t.Data, idx, n, f, lo, hi) })
}

func gatherRowsRange(dst, t []float64, idx []int, n, f, lo, hi int) {
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
	if parallel.Inline(n, grain) {
		scatterAddRowsRange(dst.Data, src.Data, idx, f, 0, n)
		return
	}
	parallel.For(n, grain, func(lo, hi int) { scatterAddRowsRange(dst.Data, src.Data, idx, f, lo, hi) })
}

func scatterAddRowsRange(dst, src []float64, idx []int, f, lo, hi int) {
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

// ScatterCounts returns how many of idx map to each of n destination rows.
func ScatterCounts(idx []int, n int) []float64 {
	c := make([]float64, n)
	for _, i := range idx {
		c[i]++
	}
	return c
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

// ScatterColsInto zeroes dst ([N, Ftotal]) and copies src ([N, F]) into the
// column block starting at offset — the gradient expansion for SplitCols.
func ScatterColsInto(dst, src *Tensor, offset int) {
	assertRank2("ScatterColsInto", dst)
	assertRank2("ScatterColsInto", src)
	n, w := src.Rows(), src.Cols()
	if dst.Rows() != n || offset < 0 || offset+w > dst.Cols() {
		panic(fmt.Sprintf("tensor: ScatterColsInto block [%d,%d) of %v", offset, offset+w, dst.Shape()))
	}
	zero(dst.Data)
	for r := 0; r < n; r++ {
		copy(dst.Row(r)[offset:offset+w], src.Row(r))
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

// SliceRows returns a copy of rows [lo, hi) of an [N,F] tensor.
func SliceRows(t *Tensor, lo, hi int) *Tensor {
	assertRank2("SliceRows", t)
	if lo < 0 || hi > t.Rows() || lo > hi {
		panic(fmt.Sprintf("tensor: SliceRows [%d,%d) of %d rows", lo, hi, t.Rows()))
	}
	f := t.Cols()
	out := New(hi-lo, f)
	copy(out.Data, t.Data[lo*f:hi*f])
	return out
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
