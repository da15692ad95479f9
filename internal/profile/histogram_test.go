package profile

import (
	"math"
	"testing"
)

// TestHistogramRejectsNonFinite is the regression test for the NaN-poisoning
// bug: a single NaN observation used to land silently in the overflow bucket
// and fold into sum, making every subsequently exported mean NaN forever.
func TestHistogramRejectsNonFinite(t *testing.T) {
	h := NewHistogram(1, 10, 100)
	h.Observe(5)
	h.Observe(math.NaN())
	h.Observe(math.Inf(1))
	h.Observe(math.Inf(-1))
	h.Observe(7)

	if got := h.N(); got != 2 {
		t.Fatalf("N = %d, want 2 (non-finite observations must not count)", got)
	}
	if got := h.Sum(); got != 12 {
		t.Fatalf("Sum = %v, want 12", got)
	}
	if math.IsNaN(h.Sum() / float64(h.N())) {
		t.Fatal("mean is NaN: a non-finite observation poisoned Sum")
	}
	// The overflow bucket must hold nothing: +Inf and NaN both used to land
	// there via the search-past-last-bound path.
	if got := h.counts[3]; got != 0 {
		t.Fatalf("overflow bucket = %d, want 0", got)
	}
	c := h.Clone()
	if c.N() != 2 || c.Sum() != 12 {
		t.Fatalf("Clone dropped state: n=%d sum=%v", c.N(), c.Sum())
	}
}

// cumulative is the per-level definition of a cumulative bucket count: the
// number of observations <= bound[i] (Prometheus "le" semantics).
func cumulative(h *Histogram, i int) int64 {
	var c int64
	for j := 0; j <= i; j++ {
		c += h.counts[j]
	}
	return c
}

// TestHistogramCumulativesEquivalence pins the one-pass exposition path to
// the per-level definition: Cumulatives()[i] must equal cumulative(h, i) at
// every level, with the final level equal to N().
func TestHistogramCumulativesEquivalence(t *testing.T) {
	bounds := []float64{0.5, 1, 2, 4, 8, 16, 32, 64}
	h := NewHistogram(bounds...)
	// Deterministic pseudo-random stream covering every bucket including
	// overflow, plus duplicates and exact-bound hits.
	x := uint64(12345)
	for i := 0; i < 500; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		h.Observe(float64(x%1300) / 10) // 0 .. 129.9
	}
	for _, b := range bounds {
		h.Observe(b) // exact bound: le semantics include it
	}
	cum := h.Cumulatives()
	if len(cum) != len(bounds)+1 {
		t.Fatalf("Cumulatives returned %d levels, want %d", len(cum), len(bounds)+1)
	}
	for i := range cum {
		if want := cumulative(h, i); cum[i] != want {
			t.Fatalf("Cumulatives[%d] = %d, cumulative(%d) = %d", i, cum[i], i, want)
		}
	}
	if cum[len(cum)-1] != h.N() {
		t.Fatalf("final cumulative level %d != N %d", cum[len(cum)-1], h.N())
	}
}
