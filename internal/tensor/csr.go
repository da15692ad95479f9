package tensor

import (
	"fmt"
	"math"

	"repro/internal/parallel"
)

// Fused CSR message-passing kernels (GSpMM family, edge softmax, segment and
// scatter-max reductions), hoisted out of the autograd layer so both the
// eager and the replayed (pooled, zero-allocation) paths share one
// implementation. rowptr has one entry per destination node plus one; col[k]
// is the source node of incoming arc k; eid[k] its edge id.
//
// Parallel execution keeps the ownership disciplines of the original ag
// kernels: forward kernels partition destination rows, backward kernels
// partition the rows they scatter into (source rows or edge ids). Every
// output element accumulates its contributions in serial edge order, so
// results are bit-identical for any worker count — and, as everywhere in
// this package, the serial path calls the range function directly instead of
// building a closure for parallel.For.

// CSRGrain estimates a For grain for a CSR kernel: rows whose combined
// edge×feature work reaches the pool's minimum profitable work unit.
func CSRGrain(edges, rows, f int) int {
	if rows <= 0 {
		return 1
	}
	avg := (edges*f)/rows + 1
	return parallel.RowGrain(avg)
}

// Epilogue is what AggregateRowsInto does to each destination row once its
// sum is complete and before the row is stored: GCN's layer tail. In order,
// row v is multiplied by Scale[v], Bias[j] is added to column j, and ReLU
// (math.Max(0, ·), bit for bit) is applied. A nil Scale or Bias and a false
// ReLU skip their step, so the zero Epilogue stores the plain sum. Each step
// rounds once with the row value as its first operand, the operand order of
// the separate MulColVectorInto, AddRowVectorInto and ReLUInto passes, so
// the result matches that chain bit for bit, NaN payloads included.
type Epilogue struct {
	Scale []float64 // one per destination row
	Bias  []float64 // one per column
	ReLU  bool
}

// The epilogue steps as the AVX2 strips take them: one bit each.
const (
	epiScale = 1 << iota
	epiBias
	epiReLU
)

// mode returns the epilogue's steps as epi* bits.
func (ep *Epilogue) mode() int {
	m := 0
	if ep.Scale != nil {
		m |= epiScale
	}
	if ep.Bias != nil {
		m |= epiBias
	}
	if ep.ReLU {
		m |= epiReLU
	}
	return m
}

// apply runs the epilogue over o, columns [j0, j0+len(o)) of a destination
// row whose scale is s, on the row just stored.
func (ep *Epilogue) apply(o []float64, s float64, j0 int) {
	if ep.Scale != nil {
		for i, v := range o {
			o[i] = v * s
		}
	}
	if ep.Bias != nil {
		b := ep.Bias[j0 : j0+len(o)]
		for i, v := range o {
			o[i] = v + b[i]
		}
	}
	if ep.ReLU {
		reluRange(o, o, 0, len(o))
	}
}

// AggregateRowsInto is the destination-row aggregation both backends run,
// DGL's u_mul_e/sum GSpMM when weighted:
// dst[v] = Σ_{q ∈ [rowptr[v], rowptr[v+1])} w[eid[q]]·x[col[q]] for x [S,F]
// and dst [n,F] with n = len(rowptr)-1, or the plain sum of x[col[q]] when w
// is nil (eid is then unused), each row then finished by ep. dst is fully
// overwritten; a row with no arcs sums to +0 before ep runs.
//
// Each output element builds up in a register, over strips of columns, and
// adds its terms in q order. Each product is rounded before it is added
// (no fused multiply-add), as a materialised message buffer would round it.
// The AVX2 strips run ep in their registers before the store; the pure-Go
// strips and the columns past the last AVX2 strip run it on the row just
// stored. Workers own destination rows, so the result is bit-identical for
// any worker count. Every index is range-checked before any row is written.
func AggregateRowsInto(dst, x *Tensor, w []float64, rowptr, col, eid []int, ep Epilogue) {
	n, f := dst.Rows(), dst.Cols()
	checkArcs(x, f, w, rowptr, col, eid, n)
	checkEpilogue(ep, n, f)
	grain := CSRGrain(len(col), n, f)
	if parallel.Inline(n, grain) {
		aggregateRowsRange(dst.Data, x.Data, w, rowptr, col, eid, ep, f, 0, n)
		return
	}
	parallel.For(n, grain, func(lo, hi int) { aggregateRowsRange(dst.Data, x.Data, w, rowptr, col, eid, ep, f, lo, hi) })
}

// checkArcs panics unless AggregateRowsInto's operands are consistent: x is
// [S,f], rowptr has n+1 non-decreasing entries ending inside col (and eid,
// when weighted), each listed col is a row of x and each listed eid a slot
// of w. The AVX2 strips read through raw pointers and rely on it.
func checkArcs(x *Tensor, f int, w []float64, rowptr, col, eid []int, n int) {
	if x.Rank() != 2 || x.Cols() != f {
		panic(fmt.Sprintf("tensor: AggregateRowsInto x %v for %d-wide rows", x.Shape(), f))
	}
	if len(rowptr) != n+1 {
		panic(fmt.Sprintf("tensor: AggregateRowsInto has %d row pointers for %d rows", len(rowptr), n))
	}
	for v := 0; v < n; v++ {
		if rowptr[v] > rowptr[v+1] {
			panic(fmt.Sprintf("tensor: AggregateRowsInto row pointers decrease at row %d", v))
		}
	}
	q0, q1 := rowptr[0], rowptr[n]
	if q0 < 0 || q1 > len(col) || (w != nil && q1 > len(eid)) {
		panic(fmt.Sprintf("tensor: AggregateRowsInto arcs [%d,%d) out of range of %d sources, %d edge ids", q0, q1, len(col), len(eid)))
	}
	// A negative index converts to a uint past any length: one compare each.
	rows := x.Rows()
	for _, c := range col[q0:q1] {
		if uint(c) >= uint(rows) {
			panic(fmt.Sprintf("tensor: AggregateRowsInto source %d out of range [0,%d)", c, rows))
		}
	}
	if w == nil {
		return
	}
	for _, e := range eid[q0:q1] {
		if uint(e) >= uint(len(w)) {
			panic(fmt.Sprintf("tensor: AggregateRowsInto edge id %d out of range [0,%d)", e, len(w)))
		}
	}
}

func aggregateRowsRange(dst, x, w []float64, rowptr, col, eid []int, ep Epilogue, f, lo, hi int) {
	mode := ep.mode()
	for v := lo; v < hi; v++ {
		orow := dst[v*f : (v+1)*f]
		q0, q1 := rowptr[v], rowptr[v+1]
		cols := col[q0:q1]
		var eids []int
		if w != nil {
			eids = eid[q0:q1]
		}
		s := 0.0
		if ep.Scale != nil {
			s = ep.Scale[v]
		}
		j := 0
		if haveAVX2 {
			// checkArcs put every cols[q] inside x, and AggregateRowsInto
			// made a non-nil ep.Bias f long, as the strips need.
			j = f &^ (vecStripWidth - 1)
			aggStrips16(orow[:j], x, w, cols, eids, f, ep.Bias, s, mode)
		}
		j0 := j
		for ; j+stripWidth <= f; j += stripWidth {
			aggStrip8(orow[j:j+stripWidth], x[j:], w, cols, eids, f)
		}
		for ; j < f; j++ {
			acc := 0.0
			for q, c := range cols {
				if w == nil {
					acc += x[c*f+j]
				} else {
					acc += float64(w[eids[q]] * x[c*f+j])
				}
			}
			orow[j] = acc
		}
		ep.apply(orow[j0:], s, j0)
	}
}

// aggStrip8 writes eight columns of one destination row: o[c] = Σ_q
// w[eids[q]]·x[cols[q]·f+c] (or the plain sum when w is nil) in increasing
// q, with the eight sums held in registers.
func aggStrip8(o, x, w []float64, cols, eids []int, f int) {
	o = o[:stripWidth]
	var c0, c1, c2, c3, c4, c5, c6, c7 float64
	if w == nil {
		for _, c := range cols {
			r := x[c*f : c*f+stripWidth]
			c0 += r[0]
			c1 += r[1]
			c2 += r[2]
			c3 += r[3]
			c4 += r[4]
			c5 += r[5]
			c6 += r[6]
			c7 += r[7]
		}
	} else {
		eids = eids[:len(cols)]
		for q, c := range cols {
			wq := w[eids[q]]
			r := x[c*f : c*f+stripWidth]
			// The conversions round each product before the add.
			c0 += float64(wq * r[0])
			c1 += float64(wq * r[1])
			c2 += float64(wq * r[2])
			c3 += float64(wq * r[3])
			c4 += float64(wq * r[4])
			c5 += float64(wq * r[5])
			c6 += float64(wq * r[6])
			c7 += float64(wq * r[7])
		}
	}
	o[0], o[1], o[2], o[3], o[4], o[5], o[6], o[7] = c0, c1, c2, c3, c4, c5, c6, c7
}

// EpilogueInPlace runs ep over every row of t ([n,F]) in place: the rows
// AggregateRowsInto would have stored had it been given ep.
func EpilogueInPlace(t *Tensor, ep Epilogue) {
	n, f := t.Rows(), t.Cols()
	checkEpilogue(ep, n, f)
	grain := parallel.RowGrain(f)
	if parallel.Inline(n, grain) {
		epilogueRange(t.Data, ep, f, 0, n)
		return
	}
	parallel.For(n, grain, func(lo, hi int) { epilogueRange(t.Data, ep, f, lo, hi) })
}

func epilogueRange(d []float64, ep Epilogue, f, lo, hi int) {
	for v := lo; v < hi; v++ {
		s := 0.0
		if ep.Scale != nil {
			s = ep.Scale[v]
		}
		ep.apply(d[v*f:(v+1)*f], s, 0)
	}
}

// checkEpilogue panics unless ep fits [n,f] rows.
func checkEpilogue(ep Epilogue, n, f int) {
	if (ep.Scale != nil && len(ep.Scale) != n) || (ep.Bias != nil && len(ep.Bias) != f) {
		panic(fmt.Sprintf("tensor: epilogue has %d scales and %d biases for [%d %d]", len(ep.Scale), len(ep.Bias), n, f))
	}
}

// GSpMMSumInto is DGL's copy_u/sum GSpMM: dst[v] = Σ_{k ∈ [rowptr[v],
// rowptr[v+1])} x[col[k]] for x [S,F], dst [n,F] with n = len(rowptr)-1,
// fully overwritten. It is AggregateRowsInto without weights.
func GSpMMSumInto(dst, x *Tensor, rowptr, col []int) {
	AggregateRowsInto(dst, x, nil, rowptr, col, nil, Epilogue{})
}

// ArcsByDst supplies a graph's arcs s[k] → d[k] grouped by destination, as a
// CSR: row v, [rowptr[v], rowptr[v+1]), lists the arcs into v in increasing
// k, col[q] being arc eid[q]'s source. A stable counting sort by destination
// (graph.BuildCSR) gives that order.
type ArcsByDst interface {
	ByDst() (rowptr, col, eid []int)
}

// GatherScaleScatterInto is PyG's message passing, dst[d[k]] += w[k]·x[s[k]]
// for k in increasing order, with dst ([n,F]) fully overwritten and w (one
// weight per arc) optional: the result, bit for bit, of GatherRowsInto,
// MulColVectorInto and ScatterAddRowsInto, without the two [len(s), F]
// message buffers. It range-checks s and d with those kernels' messages
// before arcs is consulted or any row is written, then runs
// AggregateRowsInto over arcs' CSR of (s, d), with ep finishing each row.
// Because each CSR row lists its arcs in increasing k, every element adds
// the chain's products in the chain's order.
func GatherScaleScatterInto(dst, x, w *Tensor, s, d []int, arcs ArcsByDst, ep Epilogue) {
	assertRank2("GatherScaleScatterInto", x)
	n, f := dst.Rows(), dst.Cols()
	if dst.Rank() != 2 || f != x.Cols() {
		panic(fmt.Sprintf("tensor: GatherScaleScatterInto dst %v for x %v", dst.Shape(), x.Shape()))
	}
	if len(s) != len(d) {
		panic(fmt.Sprintf("tensor: ScatterAddRows src has %d rows for %d indices", len(s), len(d)))
	}
	var wd []float64
	if w != nil {
		if w.Size() != len(s) {
			panic(fmt.Sprintf("tensor: GatherScaleScatterInto has %d weights for %d arcs", w.Size(), len(s)))
		}
		wd = w.Data
	}
	rows := x.Rows()
	for _, i := range s {
		if i < 0 || i >= rows {
			panic(fmt.Sprintf("tensor: GatherRows index %d out of range [0,%d)", i, rows))
		}
	}
	for _, i := range d {
		if i < 0 || i >= n {
			panic(fmt.Sprintf("tensor: ScatterAddRows index %d out of range [0,%d)", i, n))
		}
	}
	rowptr, col, eid := arcs.ByDst()
	AggregateRowsInto(dst, x, wd, rowptr, col, eid, ep)
}

// GSpMMSumGradInto scatters the output gradient back to source rows:
// gx[col[k]] += grad[v] for each arc k of v. gx is zeroed first; workers own
// contiguous source-row ranges.
func GSpMMSumGradInto(gx, grad *Tensor, rowptr, col []int) {
	srcRows, f := gx.Rows(), gx.Cols()
	n := len(rowptr) - 1
	grain := CSRGrain(len(col), srcRows, f)
	if parallel.Inline(srcRows, grain) {
		gspmmSumGradRange(gx.Data, grad.Data, rowptr, col, n, f, 0, srcRows)
		return
	}
	parallel.For(srcRows, grain, func(lo, hi int) {
		gspmmSumGradRange(gx.Data, grad.Data, rowptr, col, n, f, lo, hi)
	})
}

func gspmmSumGradRange(gx, grad []float64, rowptr, col []int, n, f, lo, hi int) {
	zero(gx[lo*f : hi*f])
	for v := 0; v < n; v++ {
		grow := grad[v*f : (v+1)*f]
		for k := rowptr[v]; k < rowptr[v+1]; k++ {
			src := col[k]
			if src < lo || src >= hi {
				continue
			}
			xrow := gx[src*f : (src+1)*f]
			for j := 0; j < f; j++ {
				xrow[j] += grow[j]
			}
		}
	}
}

// GSpMMWeightedSumGradXInto computes the feature gradient of the weighted
// sum: gx[col[k]] += w[eid[k]] * grad[v]. gx is zeroed first.
func GSpMMWeightedSumGradXInto(gx, grad *Tensor, w []float64, rowptr, col, eid []int) {
	srcRows, f := gx.Rows(), gx.Cols()
	n := len(rowptr) - 1
	grain := CSRGrain(len(col), srcRows, f)
	if parallel.Inline(srcRows, grain) {
		gspmmWSumGradXRange(gx.Data, grad.Data, w, rowptr, col, eid, n, f, 0, srcRows)
		return
	}
	parallel.For(srcRows, grain, func(lo, hi int) {
		gspmmWSumGradXRange(gx.Data, grad.Data, w, rowptr, col, eid, n, f, lo, hi)
	})
}

func gspmmWSumGradXRange(gx, grad, w []float64, rowptr, col, eid []int, n, f, lo, hi int) {
	zero(gx[lo*f : hi*f])
	for v := 0; v < n; v++ {
		grow := grad[v*f : (v+1)*f]
		for k := rowptr[v]; k < rowptr[v+1]; k++ {
			src := col[k]
			if src < lo || src >= hi {
				continue
			}
			wk := w[eid[k]]
			xrow := gx[src*f : (src+1)*f]
			for j := 0; j < f; j++ {
				xrow[j] += float64(wk * grow[j])
			}
		}
	}
}

// GSpMMWeightedSumGradWInto computes the edge-weight gradient: gw[eid[k]] is
// the dot of x[col[k]] with grad[v]. gw's flat buffer has one slot per edge;
// ownership is over the eid range. gw is zeroed first.
func GSpMMWeightedSumGradWInto(gw, grad, x *Tensor, rowptr, col, eid []int) {
	e := gw.Size()
	f := x.Cols()
	n := len(rowptr) - 1
	grain := parallel.RowGrain(2 * f)
	if parallel.Inline(e, grain) {
		gspmmWSumGradWRange(gw.Data, grad.Data, x.Data, rowptr, col, eid, n, f, 0, e)
		return
	}
	parallel.For(e, grain, func(lo, hi int) {
		gspmmWSumGradWRange(gw.Data, grad.Data, x.Data, rowptr, col, eid, n, f, lo, hi)
	})
}

func gspmmWSumGradWRange(gw, grad, x []float64, rowptr, col, eid []int, n, f, lo, hi int) {
	zero(gw[lo:hi])
	for v := 0; v < n; v++ {
		grow := grad[v*f : (v+1)*f]
		for k := rowptr[v]; k < rowptr[v+1]; k++ {
			ek := eid[k]
			if ek < lo || ek >= hi {
				continue
			}
			xrow := x[col[k]*f : (col[k]+1)*f]
			var dot float64
			for j := 0; j < f; j++ {
				dot += float64(xrow[j] * grow[j])
			}
			gw[ek] += dot
		}
	}
}

// GSpMMEdgeSumInto reduces per-edge messages onto destinations:
// dst[v] = Σ_k m[eid[k]]. dst is zeroed first.
func GSpMMEdgeSumInto(dst, m *Tensor, rowptr, eid []int) {
	n, f := dst.Rows(), dst.Cols()
	grain := CSRGrain(m.Rows(), n, f)
	if parallel.Inline(n, grain) {
		gspmmEdgeSumRange(dst.Data, m.Data, rowptr, eid, f, 0, n)
		return
	}
	parallel.For(n, grain, func(lo, hi int) { gspmmEdgeSumRange(dst.Data, m.Data, rowptr, eid, f, lo, hi) })
}

func gspmmEdgeSumRange(dst, m []float64, rowptr, eid []int, f, lo, hi int) {
	zero(dst[lo*f : hi*f])
	for v := lo; v < hi; v++ {
		orow := dst[v*f : (v+1)*f]
		for k := rowptr[v]; k < rowptr[v+1]; k++ {
			mrow := m[eid[k]*f : (eid[k]+1)*f]
			for j := 0; j < f; j++ {
				orow[j] += mrow[j]
			}
		}
	}
}

// GSpMMEdgeSumGradInto copies each destination's gradient row to its incoming
// edges: gm[eid[k]] = grad[v]. Ownership is over edge ids; every edge id
// appears exactly once in a CSR, so this is a plain copy, no accumulation.
func GSpMMEdgeSumGradInto(gm, grad *Tensor, rowptr, eid []int) {
	e, f := gm.Rows(), gm.Cols()
	n := len(rowptr) - 1
	grain := parallel.RowGrain(f)
	if parallel.Inline(e, grain) {
		gspmmEdgeSumGradRange(gm.Data, grad.Data, rowptr, eid, n, f, 0, e)
		return
	}
	parallel.For(e, grain, func(lo, hi int) {
		gspmmEdgeSumGradRange(gm.Data, grad.Data, rowptr, eid, n, f, lo, hi)
	})
}

func gspmmEdgeSumGradRange(gm, grad []float64, rowptr, eid []int, n, f, lo, hi int) {
	zero(gm[lo*f : hi*f])
	for v := 0; v < n; v++ {
		grow := grad[v*f : (v+1)*f]
		for k := rowptr[v]; k < rowptr[v+1]; k++ {
			ek := eid[k]
			if ek < lo || ek >= hi {
				continue
			}
			copy(gm[ek*f:(ek+1)*f], grow)
		}
	}
}

// EdgeSoftmaxInto normalizes per-edge scores over the edges sharing a
// destination: out[k] = exp(s_k - max_group) / Σ_group. scores and out are
// [E,H]; dst names each edge's destination in [0, n); maxes and sums are
// caller-provided [n,H] workspaces (re-initialized here, so pooled buffers
// can be reused across replays). A worker runs all three passes for the
// destinations it owns.
func EdgeSoftmaxInto(out, scores *Tensor, dst []int, maxes, sums *Tensor) {
	e, h := scores.Rows(), scores.Cols()
	n := maxes.Rows()
	grain := CSRGrain(e, n, 4*h)
	if parallel.Inline(n, grain) {
		edgeSoftmaxRange(out.Data, scores.Data, dst, maxes.Data, sums.Data, h, 0, n)
		return
	}
	parallel.For(n, grain, func(lo, hi int) {
		edgeSoftmaxRange(out.Data, scores.Data, dst, maxes.Data, sums.Data, h, lo, hi)
	})
}

func edgeSoftmaxRange(out, scores []float64, dst []int, maxes, sums []float64, h, lo, hi int) {
	ninf := math.Inf(-1)
	for i := lo * h; i < hi*h; i++ {
		maxes[i] = ninf
		sums[i] = 0
	}
	for k, d := range dst {
		if d < lo || d >= hi {
			continue
		}
		srow := scores[k*h : (k+1)*h]
		mrow := maxes[d*h : (d+1)*h]
		for j := 0; j < h; j++ {
			if srow[j] > mrow[j] {
				mrow[j] = srow[j]
			}
		}
	}
	for k, d := range dst {
		if d < lo || d >= hi {
			continue
		}
		srow := scores[k*h : (k+1)*h]
		mrow := maxes[d*h : (d+1)*h]
		orow := out[k*h : (k+1)*h]
		zrow := sums[d*h : (d+1)*h]
		for j := 0; j < h; j++ {
			v := math.Exp(srow[j] - mrow[j])
			orow[j] = v
			zrow[j] += v
		}
	}
	for k, d := range dst {
		if d < lo || d >= hi {
			continue
		}
		orow := out[k*h : (k+1)*h]
		zrow := sums[d*h : (d+1)*h]
		for j := 0; j < h; j++ {
			orow[j] /= zrow[j]
		}
	}
}

// EdgeSoftmaxGradInto computes the softmax input gradient
// gs_k = alpha_k * (grad_k - Σ_group alpha·grad) with a caller-provided
// [n,H] dots workspace (zeroed here).
func EdgeSoftmaxGradInto(gs, alpha, grad *Tensor, dst []int, dots *Tensor) {
	e, h := alpha.Rows(), alpha.Cols()
	n := dots.Rows()
	grain := CSRGrain(e, n, 4*h)
	if parallel.Inline(n, grain) {
		edgeSoftmaxGradRange(gs.Data, alpha.Data, grad.Data, dst, dots.Data, h, 0, n)
		return
	}
	parallel.For(n, grain, func(lo, hi int) {
		edgeSoftmaxGradRange(gs.Data, alpha.Data, grad.Data, dst, dots.Data, h, lo, hi)
	})
}

func edgeSoftmaxGradRange(gs, alpha, grad []float64, dst []int, dots []float64, h, lo, hi int) {
	zero(dots[lo*h : hi*h])
	for k, d := range dst {
		if d < lo || d >= hi {
			continue
		}
		arow := alpha[k*h : (k+1)*h]
		grow := grad[k*h : (k+1)*h]
		drow := dots[d*h : (d+1)*h]
		for j := 0; j < h; j++ {
			drow[j] += float64(arow[j] * grow[j])
		}
	}
	for k, d := range dst {
		if d < lo || d >= hi {
			continue
		}
		arow := alpha[k*h : (k+1)*h]
		grow := grad[k*h : (k+1)*h]
		drow := dots[d*h : (d+1)*h]
		srow := gs[k*h : (k+1)*h]
		for j := 0; j < h; j++ {
			srow[j] = arow[j] * (grow[j] - drow[j])
		}
	}
}

// SegmentSumInto reduces contiguous row segments: segment s covers rows
// [offsets[s], offsets[s+1]) of x and sums into dst row s. dst is zeroed
// first.
func SegmentSumInto(dst, x *Tensor, offsets []int) {
	segs, f := dst.Rows(), dst.Cols()
	grain := CSRGrain(x.Rows(), segs, f)
	if parallel.Inline(segs, grain) {
		segmentSumRange(dst.Data, x.Data, offsets, f, 0, segs)
		return
	}
	parallel.For(segs, grain, func(lo, hi int) { segmentSumRange(dst.Data, x.Data, offsets, f, lo, hi) })
}

func segmentSumRange(dst, x []float64, offsets []int, f, lo, hi int) {
	zero(dst[lo*f : hi*f])
	for s := lo; s < hi; s++ {
		orow := dst[s*f : (s+1)*f]
		for r := offsets[s]; r < offsets[s+1]; r++ {
			xrow := x[r*f : (r+1)*f]
			for j := 0; j < f; j++ {
				orow[j] += xrow[j]
			}
		}
	}
}

// SegmentSumGradInto broadcasts each segment's gradient row to the rows it
// covers: gx[r] = grad[s] for r in segment s. Segments partition the rows,
// so this fully overwrites gx.
func SegmentSumGradInto(gx, grad *Tensor, offsets []int) {
	segs, f := grad.Rows(), grad.Cols()
	grain := CSRGrain(gx.Rows(), segs, f)
	if parallel.Inline(segs, grain) {
		segmentSumGradRange(gx.Data, grad.Data, offsets, f, 0, segs)
		return
	}
	parallel.For(segs, grain, func(lo, hi int) { segmentSumGradRange(gx.Data, grad.Data, offsets, f, lo, hi) })
}

func segmentSumGradRange(gx, grad []float64, offsets []int, f, lo, hi int) {
	for s := lo; s < hi; s++ {
		grow := grad[s*f : (s+1)*f]
		for r := offsets[s]; r < offsets[s+1]; r++ {
			copy(gx[r*f:(r+1)*f], grow)
		}
	}
}

// ScatterMaxInto takes the per-destination elementwise maximum of rows of x:
// dst[idx[k]][j] = max over k, with empty slots set to 0 (PyG's fill
// behaviour) and arg recording the winning source row per slot (-1 for
// empty). dst is [n,F]; arg has n*F entries. Serial tie-breaking (first k
// wins on equal values) is preserved under destination-row ownership.
func ScatterMaxInto(dst *Tensor, arg []int, x *Tensor, idx []int) {
	n, f := dst.Rows(), dst.Cols()
	grain := CSRGrain(len(idx), n, f)
	if parallel.Inline(n, grain) {
		scatterMaxRange(dst.Data, arg, x.Data, idx, f, 0, n)
		return
	}
	parallel.For(n, grain, func(lo, hi int) { scatterMaxRange(dst.Data, arg, x.Data, idx, f, lo, hi) })
}

func scatterMaxRange(dst []float64, arg []int, x []float64, idx []int, f, lo, hi int) {
	ninf := math.Inf(-1)
	for i := lo * f; i < hi*f; i++ {
		dst[i] = ninf
		arg[i] = -1
	}
	for k, d := range idx {
		if d < lo || d >= hi {
			continue
		}
		srow := x[k*f : (k+1)*f]
		drow := dst[d*f : (d+1)*f]
		for j := 0; j < f; j++ {
			if srow[j] > drow[j] {
				drow[j] = srow[j]
				arg[d*f+j] = k
			}
		}
	}
	for i := lo * f; i < hi*f; i++ {
		if math.IsInf(dst[i], -1) {
			dst[i] = 0
		}
	}
}

// ScatterMaxGradInto routes each slot's gradient to the source row that won
// it: gx[arg[slot]] += grad[slot]. gx is zeroed first. Each source row feeds
// exactly one destination, so destination-row ownership makes the scatter
// race-free — but gx rows are only written by their destination's owner, so
// the zeroing must cover all of gx before any worker scatters; with
// destination partitioning that is only safe serially, hence the kernel
// zeroes gx up front and partitions the slot scan.
func ScatterMaxGradInto(gx, grad *Tensor, arg []int) {
	n, f := grad.Rows(), grad.Cols()
	grain := CSRGrain(gx.Rows(), n, f)
	zero(gx.Data)
	if parallel.Inline(n, grain) {
		scatterMaxGradRange(gx.Data, grad.Data, arg, f, 0, n)
		return
	}
	parallel.For(n, grain, func(lo, hi int) { scatterMaxGradRange(gx.Data, grad.Data, arg, f, lo, hi) })
}

func scatterMaxGradRange(gx, grad []float64, arg []int, f, lo, hi int) {
	for slot := lo * f; slot < hi*f; slot++ {
		if k := arg[slot]; k >= 0 {
			gx[k*f+slot%f] += grad[slot]
		}
	}
}
