package profile

import (
	"fmt"
	"math"
	"sort"
)

// Histogram counts observations into fixed upper-bound buckets, the
// instrument behind the serving subsystem's batch-size and latency
// distributions. Bucket i counts observations v <= bound[i]; one implicit
// overflow bucket catches everything above the last bound (rendered as
// "+Inf" in exported metrics). A Histogram is not safe for concurrent use;
// callers that share one across goroutines must synchronize.
type Histogram struct {
	bounds []float64
	counts []int64 // len(bounds)+1; last entry is the overflow bucket
	n      int64
	sum    float64
}

// NewHistogram returns a histogram over the given strictly ascending upper
// bounds.
func NewHistogram(bounds ...float64) *Histogram {
	if len(bounds) == 0 {
		panic("profile: histogram needs at least one bucket bound")
	}
	if !sort.Float64sAreSorted(bounds) {
		panic(fmt.Sprintf("profile: histogram bounds not ascending: %v", bounds))
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] == bounds[i-1] {
			panic(fmt.Sprintf("profile: duplicate histogram bound %v", bounds[i]))
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]int64, len(bounds)+1),
	}
}

// Observe records one observation. Non-finite values (NaN, ±Inf) are
// dropped: a single NaN reaching sum would poison every exported mean
// forever, and NaN compares false against every bound, so it would otherwise
// land silently in the overflow bucket.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i]++
	h.n++
	h.sum += v
}

// N returns the number of observations.
func (h *Histogram) N() int64 { return h.n }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return h.sum }

// Bounds returns the bucket upper bounds (without the implicit +Inf).
func (h *Histogram) Bounds() []float64 { return append([]float64(nil), h.bounds...) }

// Cumulatives returns every cumulative level in one O(buckets) pass:
// element i is the number of observations <= bound[i], and the final element
// (index len(Bounds())) is N().
func (h *Histogram) Cumulatives() []int64 {
	out := make([]int64, len(h.counts))
	var c int64
	for i, n := range h.counts {
		c += n
		out[i] = c
	}
	return out
}

// Clone returns an independent copy, used to snapshot live metrics.
func (h *Histogram) Clone() *Histogram {
	return &Histogram{
		bounds: append([]float64(nil), h.bounds...),
		counts: append([]int64(nil), h.counts...),
		n:      h.n,
		sum:    h.sum,
	}
}
