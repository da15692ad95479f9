package tensor

import (
	"fmt"
	"math"

	"repro/internal/parallel"
)

// Matrix kernels.
//
// Each product is an Into kernel that writes a caller-provided destination,
// so pooled buffers can be reused with zero allocations. The kernels fully
// define the result (accumulating forms zero dst first); dst must not alias
// either operand.
//
// The inner loops are cache-blocked and unrolled or register-blocked, but
// always accumulate each output element over p in strictly increasing order —
// the same order the original straight-line kernels used — so results stay
// bit-identical to serial execution for any worker count and any block size.
//
// Kernels that would normally run through parallel.For call their range
// function directly when parallel.Inline says the work stays serial: a
// closure passed to For escapes to the heap, and the zero-allocation
// guarantee of the pooled path covers the kernels themselves.

const (
	// mmBlockK × mmBlockJ is the panel of b kept hot while streaming rows of
	// a: 128×256 float64s = 256 KiB, sized to sit in L2 with room to spare.
	// mmBlockK also bounds a row's list of nonzero terms, which therefore
	// lives on the stack.
	mmBlockK = 128
	mmBlockJ = 256
	// stripWidth is how many output columns MatMulInto and
	// AggregateRowsInto keep in registers per pass over a row's terms.
	// Go/amd64 has 15 usable XMM registers; at eight the compiler loads and
	// multiplies all eight terms before adding them and keeps two
	// accumulators on the stack, an L1 round trip each per term. Four and
	// six wide do not spill and measured no faster (DESIGN §12.2).
	stripWidth = 8
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
// strips of stripWidth output columns, adding the terms to one accumulator
// per column in increasing p. Partial sums carry through dst between K blocks,
// so every element still adds its terms in increasing p, the order of the
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
	skipZero := allFinite(b.Data)
	grain := parallel.RowGrain(2 * k * n)
	if parallel.Inline(m, grain) {
		matMulRange(dst.Data, a.Data, b.Data, k, n, skipZero, 0, m)
		return
	}
	parallel.For(m, grain, func(lo, hi int) {
		matMulRange(dst.Data, a.Data, b.Data, k, n, skipZero, lo, hi)
	})
}

// matMulRange computes rows [lo,hi) of dst = a @ b with p/j tiling.
func matMulRange(dst, a, b []float64, k, n int, skipZero bool, lo, hi int) {
	if k == 0 {
		zero(dst[lo*n : hi*n])
		return
	}
	var terms mmTerms
	for j0 := 0; j0 < n; j0 += mmBlockJ {
		j1 := min(j0+mmBlockJ, n)
		for p0 := 0; p0 < k; p0 += mmBlockK {
			p1 := min(p0+mmBlockK, k)
			for i := lo; i < hi; i++ {
				off, coef := terms.list(a[i*k+p0:i*k+p1], p0, n, skipZero)
				orow := dst[i*n : (i+1)*n]
				j := j0
				for ; j+stripWidth <= j1; j += stripWidth {
					mmStrip8(orow[j:j+stripWidth], b[j:], off, coef, p0 == 0)
				}
				for ; j < j1; j++ {
					acc := 0.0
					if p0 > 0 {
						acc = orow[j]
					}
					for q, o := range off {
						acc += coef[q] * b[o+j]
					}
					orow[j] = acc
				}
			}
		}
	}
}

// mmTerms lists one row block's terms: b row offset p·N and coefficient
// a[i,p], in increasing p.
type mmTerms struct {
	off  [mmBlockK]int
	coef [mmBlockK]float64
}

// list fills t from arow = a[i, p0:p0+len(arow)], leaving out ±0
// coefficients when skipZero, and returns the filled prefixes. It does not
// branch on the data: every entry is written, and the count advances only
// past nonzeros.
func (t *mmTerms) list(arow []float64, p0, n int, skipZero bool) ([]int, []float64) {
	cnt := 0
	for q, av := range arow {
		t.off[cnt] = (p0 + q) * n
		t.coef[cnt] = av
		if !skipZero {
			cnt++
			continue
		}
		bits := math.Float64bits(av) << 1 // drops the sign: ±0 → 0
		cnt += int((bits | -bits) >> 63)  // 1 unless bits == 0
	}
	return t.off[:cnt], t.coef[:cnt]
}

// mmStrip8 adds the listed terms to eight output columns: o[c] +=
// Σ_q coef[q]·b[off[q]+c] in increasing q, with o's eight sums held in
// registers. fresh starts them at +0 instead of loading o, on a row's first
// K block.
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
		c0 += av * r[0]
		c1 += av * r[1]
		c2 += av * r[2]
		c3 += av * r[3]
		c4 += av * r[4]
		c5 += av * r[5]
		c6 += av * r[6]
		c7 += av * r[7]
	}
	o[0], o[1], o[2], o[3], o[4], o[5], o[6], o[7] = c0, c1, c2, c3, c4, c5, c6, c7
}

// axpyUnrolled performs orow[j] += av * brow[j] with 4-way unrolling. The
// four lanes touch distinct elements, so each element still sees one add —
// bit-identical to the rolled loop — while the CPU overlaps the chains.
func axpyUnrolled(orow, brow []float64, av float64) {
	j, w := 0, len(orow)
	if len(brow) < w {
		w = len(brow) // bounds hint for the compiler; lengths are equal
	}
	for ; j+4 <= w; j += 4 {
		orow[j] += av * brow[j]
		orow[j+1] += av * brow[j+1]
		orow[j+2] += av * brow[j+2]
		orow[j+3] += av * brow[j+3]
	}
	for ; j < w; j++ {
		orow[j] += av * brow[j]
	}
}

// MatMulTAInto computes dst = aᵀ @ b for a [K,M], b [K,N], dst [M,N].
// dst is fully overwritten and must not alias a or b. Workers own contiguous
// ranges of output rows; within a range the p loop stays outermost (rows of a
// and b stream contiguously) and tiled, so every output element accumulates
// over p in increasing order. The zero-skip carries the same finiteness guard
// as MatMulInto.
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
	skipZero := allFinite(b.Data)
	grain := parallel.RowGrain(2 * k * n)
	if parallel.Inline(m, grain) {
		matMulTARange(dst.Data, a.Data, b.Data, k, m, n, skipZero, 0, m)
		return
	}
	parallel.For(m, grain, func(lo, hi int) {
		matMulTARange(dst.Data, a.Data, b.Data, k, m, n, skipZero, lo, hi)
	})
}

// matMulTARange computes rows [lo,hi) of dst = aᵀ @ b with p tiling.
func matMulTARange(dst, a, b []float64, k, m, n int, skipZero bool, lo, hi int) {
	zero(dst[lo*n : hi*n])
	for p0 := 0; p0 < k; p0 += mmBlockK {
		p1 := p0 + mmBlockK
		if p1 > k {
			p1 = k
		}
		for p := p0; p < p1; p++ {
			arow := a[p*m : (p+1)*m]
			brow := b[p*n : (p+1)*n]
			for i := lo; i < hi; i++ {
				av := arow[i]
				if av == 0 && skipZero {
					continue
				}
				axpyUnrolled(dst[i*n:(i+1)*n], brow, av)
			}
		}
	}
}

// MatMulTBInto computes dst = a @ bᵀ for a [M,K], b [N,K], dst [M,N].
// dst is fully overwritten and must not alias a or b. Each output element is
// an independent dot product with a single sequential accumulator (bit-exact
// with the original kernel); the j loop is 4-way unrolled so four dot chains
// run concurrently over the same streamed row of a.
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
	grain := parallel.RowGrain(2 * k * n)
	if parallel.Inline(m, grain) {
		matMulTBRange(dst.Data, a.Data, b.Data, k, n, 0, m)
		return
	}
	parallel.For(m, grain, func(lo, hi int) {
		matMulTBRange(dst.Data, a.Data, b.Data, k, n, lo, hi)
	})
}

// matMulTBRange computes rows [lo,hi) of dst = a @ bᵀ.
func matMulTBRange(dst, a, b []float64, k, n, lo, hi int) {
	for i := lo; i < hi; i++ {
		arow := a[i*k : (i+1)*k]
		orow := dst[i*n : (i+1)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := b[j*k : (j+1)*k]
			b1 := b[(j+1)*k : (j+2)*k]
			b2 := b[(j+2)*k : (j+3)*k]
			b3 := b[(j+3)*k : (j+4)*k]
			var s0, s1, s2, s3 float64
			for p := 0; p < k; p++ {
				av := arow[p]
				s0 += av * b0[p]
				s1 += av * b1[p]
				s2 += av * b2[p]
				s3 += av * b3[p]
			}
			orow[j], orow[j+1], orow[j+2], orow[j+3] = s0, s1, s2, s3
		}
		for ; j < n; j++ {
			brow := b[j*k : (j+1)*k]
			var s float64
			for p := 0; p < k; p++ {
				s += arow[p] * brow[p]
			}
			orow[j] = s
		}
	}
}

// checkDst panics unless dst is a rank-2 [m,n] tensor.
func checkDst(op string, dst *Tensor, m, n int) {
	if dst.Rank() != 2 || dst.Dim(0) != m || dst.Dim(1) != n {
		panic(fmt.Sprintf("tensor: %sInto dst has shape %v, want [%d %d]", op, dst.Shape(), m, n))
	}
}
