package tensor

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/parallel"
)

// Matrix kernels.
//
// Each product is an Into kernel that writes a caller-provided destination,
// so pooled buffers can be reused with zero allocations. The kernels fully
// define the result; dst must not alias either operand.
//
// All three products run one kernel (mmArgs.rows): each output element builds
// up in a register over its terms in strictly increasing p — the order of
// the straight-line kernels they replaced — so results stay bit-identical to
// serial execution for any worker count and any block size.
//
// The products reach the worker pool through one parallel.For call with mmArgs
// as its argument and the method expression mmArgs.rows as its range
// function, which allocates nothing at any worker count.

const (
	// mmBlockK × mmBlockJ is the panel of b kept hot while streaming rows of
	// a: 128×256 float64s = 256 KiB, sized to sit in L2 with room to spare.
	// mmBlockK also bounds a row's list of nonzero terms, which therefore
	// lives on the stack.
	mmBlockK = 128
	mmBlockJ = 256
	// stripWidth is how many output columns the pure-Go strips (mmStrip8,
	// aggStrip8) keep in registers per pass over a row's terms. Go/amd64 has
	// 15 usable XMM registers; at eight the compiler loads and multiplies all
	// eight terms before adding them and keeps two accumulators on the
	// stack, an L1 round trip each per term. Four and six wide do not spill
	// and measured no faster (DESIGN §12.2).
	stripWidth = 8
	// vecStripWidth is the AVX2 strips' width: four YMM accumulators of four
	// doubles each (strip_amd64.s).
	vecStripWidth = 16
)

// allFinite reports whether every element is finite (no NaN, no ±Inf).
// v-v is 0 for finite v and NaN otherwise.
func allFinite(d []float64) bool {
	for _, v := range d {
		if v-v != 0 {
			return false
		}
	}
	return true
}

// MatMulInto computes dst = a @ b for a [M,K], b [K,N], dst [M,N].
// dst is fully overwritten and must not alias a or b.
//
// Each output element builds up in a register: for one row of a and one
// block of K, the kernel lists the terms a[i,p]·b[p,:] once and then sweeps
// strips of output columns, adding the terms to one accumulator per column
// in increasing p. Partial sums carry through dst between K blocks, so every
// element still adds its terms in increasing p, the order of the
// straight-line kernel, for any worker count and block size. Tiling p and j
// keeps an mmBlockK×mmBlockJ panel of b hot across every row a worker owns.
//
// Terms whose a[i,p] is ±0 are left out of the list, but only when b is
// entirely finite: 0×Inf and 0×NaN must produce NaN, not silently vanish, or
// a divergence during training is masked exactly where it starts. For
// finite b leaving them out cannot change a bit (DESIGN §6): an accumulator
// that starts at +0 never becomes −0, so adding a ±0 product is a no-op.
// The one-pass finiteness scan over b is O(K·N), negligible against the
// O(M·K·N) product.
func MatMulInto(dst, a, b *Tensor) {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatMul wants rank-2 operands, got %v and %v", a.Shape(), b.Shape()))
	}
	m, k := a.Dim(0), a.Dim(1)
	k2, n := b.Dim(0), b.Dim(1)
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dimension mismatch %v @ %v", a.Shape(), b.Shape()))
	}
	checkDst("MatMul", dst, m, n)
	mm := mmArgs{dst: dst.Data, a: a.Data, b: b.Data, as0: k, as1: 1, k: k, n: n}
	mm.run(m)
}

// MatMulTAInto computes dst = aᵀ @ b for a [K,M], b [K,N], dst [M,N].
// dst is fully overwritten and must not alias a or b. It is MatMulInto's
// kernel reading a with its strides swapped: row i's terms are column i of
// a. Zero terms are skipped under the same finiteness guard.
func MatMulTAInto(dst, a, b *Tensor) {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatMulTA wants rank-2 operands, got %v and %v", a.Shape(), b.Shape()))
	}
	k, m := a.Dim(0), a.Dim(1)
	k2, n := b.Dim(0), b.Dim(1)
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTA dimension mismatch %v and %v", a.Shape(), b.Shape()))
	}
	checkDst("MatMulTA", dst, m, n)
	mm := mmArgs{dst: dst.Data, a: a.Data, b: b.Data, as0: 1, as1: m, k: k, n: n}
	mm.run(m)
}

// MatMulTBInto computes dst = a @ bᵀ for a [M,K], b [N,K], dst [M,N].
// dst is fully overwritten and must not alias a or b. It is MatMulInto's
// kernel over panels of bᵀ, K block by vecStripWidth columns, packed onto
// the stack. Zero terms are skipped under the same finiteness guard.
func MatMulTBInto(dst, a, b *Tensor) {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatMulTB wants rank-2 operands, got %v and %v", a.Shape(), b.Shape()))
	}
	m, k := a.Dim(0), a.Dim(1)
	n, k2 := b.Dim(0), b.Dim(1)
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTB dimension mismatch %v and %v", a.Shape(), b.Shape()))
	}
	checkDst("MatMulTB", dst, m, n)
	mm := mmArgs{dst: dst.Data, a: a.Data, b: b.Data, as0: k, as1: 1, bT: true, k: k, n: n}
	mm.run(m)
}

// mmArgs is one product dst [M,N] = A·B. A's element (i,p) is
// a[i*as0+p*as1]; B's element (p,j) is b[p*n+j], or b[j*k+p] when bT.
type mmArgs struct {
	dst, a, b []float64
	as0, as1  int
	bT        bool
	k, n      int
	skipZero  bool
}

// run computes all m rows of the product, on the worker pool when the
// product is large enough.
func (mm mmArgs) run(m int) {
	mm.skipZero = allFinite(mm.b)
	parallel.For(m, parallel.RowGrain(2*mm.k*mm.n), mm, mmArgs.rows)
}

// rows computes rows [lo,hi) of the product with p/j tiling. A transposed b
// is packed, one K block by vecStripWidth columns at a time, into a stack
// panel laid out as an untransposed b would be.
func (mm mmArgs) rows(lo, hi int) {
	k, n := mm.k, mm.n
	if k == 0 {
		zero(mm.dst[lo*n : hi*n])
		return
	}
	var terms mmTerms
	if !mm.bT {
		for j0 := 0; j0 < n; j0 += mmBlockJ {
			j1 := min(j0+mmBlockJ, n)
			for p0 := 0; p0 < k; p0 += mmBlockK {
				mm.block(&terms, mm.b[p0*n+j0:], n, lo, hi, p0, min(p0+mmBlockK, k), j0, j1)
			}
		}
		return
	}
	var panel [mmBlockK * vecStripWidth]float64
	for j0 := 0; j0 < n; j0 += vecStripWidth {
		j1 := min(j0+vecStripWidth, n)
		w := j1 - j0
		for p0 := 0; p0 < k; p0 += mmBlockK {
			p1 := min(p0+mmBlockK, k)
			for c := 0; c < w; c++ {
				brow := mm.b[(j0+c)*k+p0 : (j0+c)*k+p1]
				for q, v := range brow {
					panel[q*w+c] = v
				}
			}
			mm.block(&terms, panel[:], w, lo, hi, p0, p1, j0, j1)
		}
	}
}

// block adds K block [p0,p1) of rows [lo,hi) into dst's columns [j0,j1).
// Row p of B's block, from column j0 on, starts at bp[(p-p0)*bs]. On the
// first K block the accumulators start at +0 instead of loading dst.
func (mm *mmArgs) block(t *mmTerms, bp []float64, bs, lo, hi, p0, p1, j0, j1 int) {
	for i := lo; i < hi; i++ {
		var off []int
		var coef []float64
		if s := i*mm.as0 + p0*mm.as1; mm.as1 == 1 {
			off, coef = t.list(mm.a[s:s+p1-p0], bs, mm.skipZero)
		} else {
			off, coef = t.listStrided(mm.a, s, mm.as1, p1-p0, bs, mm.skipZero)
		}
		mmStrips(mm.dst[i*mm.n+j0:i*mm.n+j1], bp, off, coef, p0 == 0)
	}
}

// mmTerms lists one row block's terms: offset q·bs of the term's row in the
// block of b, and coefficient a[i,p0+q], in increasing q.
type mmTerms struct {
	off  [mmBlockK]int
	coef [mmBlockK]float64
}

// list fills t from arow = a[i, p0:p0+len(arow)], leaving out ±0
// coefficients when skipZero, and returns the filled prefixes. It does not
// branch on the data: every entry is written, and the count advances only
// past nonzeros. It stays out of line, where its few live values fit in
// registers; inlined into block's loop it spilled them to the stack.
//
//go:noinline
func (t *mmTerms) list(arow []float64, bs int, skipZero bool) ([]int, []float64) {
	if len(arow) > mmBlockK {
		panic("tensor: term list longer than the K block")
	}
	if !skipZero {
		for q, av := range arow {
			t.off[q] = q * bs
			t.coef[q] = av
		}
		return t.off[:len(arow)], t.coef[:len(arow)]
	}
	if haveAVX2 {
		return t.listMasked(arow, bs)
	}
	cnt, o := 0, 0
	for _, av := range arow {
		c := cnt & (mmBlockK - 1) // cnt < mmBlockK: no bounds check
		t.off[c] = o
		t.coef[c] = av
		o += bs
		u := math.Float64bits(av) << 1 // drops the sign: ±0 → 0
		cnt += int((u | -u) >> 63)     // 1 unless u == 0
	}
	return t.off[:cnt], t.coef[:cnt]
}

// listMasked is list's skipZero branch on AVX2 CPUs: for each group of up
// to 64 coefficients, one vector compare per four gives a mask of the
// nonzeros (nonzeroMask), and only its set bits are visited, lowest first,
// so the list comes out in the same increasing q as the scalar loop's.
func (t *mmTerms) listMasked(arow []float64, bs int) ([]int, []float64) {
	cnt := 0
	for g := 0; g < len(arow); g += 64 {
		grp := arow[g:min(g+64, len(arow))]
		m := nonzeroMask(grp)
		for q := len(grp) &^ 3; q < len(grp); q++ {
			if math.Float64bits(grp[q])<<1 != 0 { // ±0 → 0
				m |= 1 << q
			}
		}
		for ; m != 0; m &= m - 1 {
			q := bits.TrailingZeros64(m)
			c := cnt & (mmBlockK - 1) // cnt < mmBlockK: no bounds check
			t.off[c] = (g + q) * bs
			t.coef[c] = grp[q]
			cnt++
		}
	}
	return t.off[:cnt], t.coef[:cnt]
}

// listStrided is list over the nq coefficients a[s], a[s+stride], ….
func (t *mmTerms) listStrided(a []float64, s, stride, nq, bs int, skipZero bool) ([]int, []float64) {
	cnt := 0
	for q := 0; q < nq; q++ {
		av := a[s+q*stride]
		t.off[cnt] = q * bs
		t.coef[cnt] = av
		if !skipZero {
			cnt++
			continue
		}
		u := math.Float64bits(av) << 1
		cnt += int((u | -u) >> 63)
	}
	return t.off[:cnt], t.coef[:cnt]
}

// mmStrips adds the listed terms to the output columns o: o[c] +=
// Σ_q coef[q]·bp[off[q]+c] in increasing q, or o[c] = that sum when fresh.
// It sweeps AVX2 strips of vecStripWidth columns where the CPU has them,
// then pure-Go strips of stripWidth, then single columns.
func mmStrips(o, bp []float64, off []int, coef []float64, fresh bool) {
	coef = coef[:len(off)]
	if len(off) > 0 {
		// The offsets increase, so this one check puts every address the
		// strips read inside bp, as mmStrips16 needs.
		_ = bp[off[len(off)-1]+len(o)-1]
	}
	j := 0
	if haveAVX2 {
		j = len(o) &^ (vecStripWidth - 1)
		mmStrips16(o[:j], bp, off, coef, fresh)
	}
	for ; j+stripWidth <= len(o); j += stripWidth {
		mmStrip8(o[j:j+stripWidth], bp[j:], off, coef, fresh)
	}
	for ; j < len(o); j++ {
		acc := 0.0
		if !fresh {
			acc = o[j]
		}
		for q, p := range off {
			acc += float64(coef[q] * bp[p+j])
		}
		o[j] = acc
	}
}

// mmStrip8 adds the listed terms to eight output columns: o[c] +=
// Σ_q coef[q]·b[off[q]+c] in increasing q, with o's eight sums held in
// registers. fresh starts them at +0 instead of loading o, on a row's first
// K block. The conversions round each product before the add, so no
// architecture fuses them into a multiply-add.
func mmStrip8(o, b []float64, off []int, coef []float64, fresh bool) {
	o = o[:stripWidth]
	var c0, c1, c2, c3, c4, c5, c6, c7 float64
	if !fresh {
		c0, c1, c2, c3, c4, c5, c6, c7 = o[0], o[1], o[2], o[3], o[4], o[5], o[6], o[7]
	}
	coef = coef[:len(off)]
	for q, p := range off {
		av := coef[q]
		r := b[p : p+stripWidth]
		c0 += float64(av * r[0])
		c1 += float64(av * r[1])
		c2 += float64(av * r[2])
		c3 += float64(av * r[3])
		c4 += float64(av * r[4])
		c5 += float64(av * r[5])
		c6 += float64(av * r[6])
		c7 += float64(av * r[7])
	}
	o[0], o[1], o[2], o[3], o[4], o[5], o[6], o[7] = c0, c1, c2, c3, c4, c5, c6, c7
}

// checkDst panics unless dst is a rank-2 [m,n] tensor.
func checkDst(op string, dst *Tensor, m, n int) {
	if dst.Rank() != 2 || dst.Dim(0) != m || dst.Dim(1) != n {
		panic(fmt.Sprintf("tensor: %sInto dst has shape %v, want [%d %d]", op, dst.Shape(), m, n))
	}
}
