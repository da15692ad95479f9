package tensor

// haveAVX2 reports whether the product and aggregation kernels run their
// AVX2 strips (strip_amd64.s). It is set once, at init, from CPUID and XCR0;
// without it the pure-Go strips run, with the same bits.
var haveAVX2 = detectAVX2()

// detectAVX2 reports whether the CPU has AVX and AVX2 and the OS saves YMM
// state: CPUID.1:ECX's OSXSAVE and AVX bits, XCR0's XMM and YMM bits, and
// CPUID.(7,0):EBX's AVX2 bit.
func detectAVX2() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns XCR0.
func xgetbv() (eax, edx uint32)

// mmStrips16 is mmStrip8 over each 16-column strip of o (len(o)/16 of
// them), four doubles per instruction: o[c] += Σ_q coef[q]·b[off[q]+c] in
// increasing q, or o[c] = that sum when fresh. It reads through raw
// pointers: the caller guarantees len(coef) ≥ len(off) and, for every q,
// b[off[q]+c] in range for each column c it writes.
//
//go:noescape
func mmStrips16(o, b []float64, off []int, coef []float64, fresh bool)

// aggStrips16 is aggStrip8 over each 16-column strip of o, followed by the
// epilogue steps whose epi* bits are set in epi: o[c] = Σ_q
// w[eids[q]]·x[cols[q]·f+c] in increasing q, or the plain sum when w is nil,
// then ×scale, +bias[c] and ReLU, in registers, before the store. The caller
// guarantees x[cols[q]·f+c] in range for every q and each column c it
// writes; when weighted, len(eids) ≥ len(cols) and every eids[q] < len(w);
// with epiBias, len(bias) ≥ len(o).
//
//go:noescape
func aggStrips16(o, x, w []float64, cols, eids []int, f int, bias []float64, scale float64, epi int)

// nonzeroMask returns a mask whose bit q is set when a[q] is not ±0 (NaN
// and subnormals count as nonzero), for q < len(a)&^3; the caller sets the
// bits of the last len(a)%4 coefficients itself. len(a) must be at most 64.
//
//go:noescape
func nonzeroMask(a []float64) uint64
