package obs

import (
	"math"
	"sort"
	"sync"
	"time"
)

// The SLO tracker gives the serving path the paper's percentile discipline:
// mean latency hides the tail the batching window and queue create, so the
// tracker keeps a rolling window of per-request latencies, computes
// p50/p95/p99 at scrape time, and compares the tail against a configured
// target. Staying under the target means less than 1% of the window may run
// over it; the tracker watches that error budget sample by sample (an O(1)
// over-target count, not a per-request sort) and fires a breach callback —
// typically a flight-recorder dump — when the budget is exhausted.

// DefaultSLOWindow is the rolling sample window when SLOOptions gives none.
const DefaultSLOWindow = 1024

// minBreachSamples is how many samples the window needs before breach
// detection arms — a p99 over three requests is noise, not a signal. A
// window smaller than this arms when full: the old unconditional threshold
// meant a small window could never reach it, so breach detection was
// silently dead for any Window < 100.
const minBreachSamples = 100

// SLOOptions configures an SLOTracker.
type SLOOptions struct {
	// Target is the p99 latency objective. Required.
	Target time.Duration
	// Window is the rolling sample window (default DefaultSLOWindow).
	Window int
	// Registry, when non-nil, receives the gnnlab_slo_* series.
	Registry *Registry
	// MinInterval rate-limits OnBreach: after a fire, re-entering breach
	// within MinInterval stays silent (default 0 — every breach fires).
	MinInterval time.Duration
	// OnBreach runs (on the observing goroutine, outside the tracker's lock)
	// when the rolling window transitions into breach: more than 1% of its
	// samples over Target. It receives the window's current p99.
	OnBreach func(p99 time.Duration)
}

// SLOTracker tracks rolling-window latency quantiles against a target. All
// methods are safe for concurrent use; a nil *SLOTracker no-ops.
type SLOTracker struct {
	opt SLOOptions

	mu       sync.Mutex
	samples  []float64 // seconds, ring
	over     []bool    // over-target flag per ring slot
	idx      int
	n        int // filled slots
	overN    int // over-target samples currently in the window
	arm      int // samples needed before breach detection engages
	breached bool
	lastFire time.Time

	total, overTotal, breaches *Counter
}

// NewSLOTracker builds a tracker for the given target. It panics on a
// non-positive target, mirroring the codebase's constructor conventions.
func NewSLOTracker(opt SLOOptions) *SLOTracker {
	if opt.Target <= 0 {
		panic("obs: SLO tracker requires a positive target")
	}
	if opt.Window <= 0 {
		opt.Window = DefaultSLOWindow
	}
	s := &SLOTracker{
		opt:     opt,
		samples: make([]float64, opt.Window),
		over:    make([]bool, opt.Window),
		arm:     minBreachSamples,
	}
	if opt.Window < s.arm {
		s.arm = opt.Window
	}
	if r := opt.Registry; r != nil {
		r.GaugeFunc("gnnlab_slo_target_seconds",
			"Configured p99 latency objective.",
			func() float64 { return opt.Target.Seconds() })
		s.total = r.Counter("gnnlab_slo_requests_total",
			"Requests observed by the SLO tracker.")
		s.overTotal = r.Counter("gnnlab_slo_over_target_total",
			"Requests slower than the SLO target.")
		s.breaches = r.Counter("gnnlab_slo_breaches_total",
			"Transitions of the rolling window into p99 breach.")
		lat := r.GaugeVec("gnnlab_slo_latency_seconds",
			"Rolling-window request latency quantiles.", "quantile")
		lat.Func(func() float64 { return s.Quantile(0.50).Seconds() }, "p50")
		lat.Func(func() float64 { return s.Quantile(0.95).Seconds() }, "p95")
		lat.Func(func() float64 { return s.Quantile(0.99).Seconds() }, "p99")
		r.GaugeFunc("gnnlab_slo_burn_ratio",
			"Fraction of the 1% error budget consumed by the rolling window (1.0 = exactly at budget).",
			s.burnRatio)
	}
	return s
}

// Observe records one request latency and runs breach detection.
func (s *SLOTracker) Observe(d time.Duration) {
	if s == nil {
		return
	}
	over := d > s.opt.Target
	var fire func(p99 time.Duration)
	s.mu.Lock()
	if s.n == len(s.samples) && s.over[s.idx] {
		s.overN-- // the evicted sample leaves the window
	}
	s.samples[s.idx] = d.Seconds()
	s.over[s.idx] = over
	s.idx = (s.idx + 1) % len(s.samples)
	if s.n < len(s.samples) {
		s.n++
	}
	if over {
		s.overN++
	}
	// More than 1% of the window over target means the nearest-rank p99 is
	// above the target; recovery needs the window back to half the budget
	// (hysteresis, so one borderline sample cannot flap the breach state).
	inBreach := s.n >= s.arm && s.overN*100 > s.n
	switch {
	case inBreach && !s.breached:
		s.breached = true
		if s.breaches != nil {
			s.breaches.Inc()
		}
		if s.opt.OnBreach != nil &&
			(s.opt.MinInterval <= 0 || s.lastFire.IsZero() || time.Since(s.lastFire) >= s.opt.MinInterval) {
			s.lastFire = time.Now()
			fire = s.opt.OnBreach
		}
	case s.breached && s.overN*200 <= s.n:
		s.breached = false
	}
	s.mu.Unlock()
	if s.total != nil {
		s.total.Inc()
	}
	if over && s.overTotal != nil {
		s.overTotal.Inc()
	}
	if fire != nil {
		fire(s.Quantile(0.99))
	}
}

// Quantile computes the nearest-rank q-quantile (0 < q <= 1) over the
// rolling window; 0 with no samples. It sorts a copy, so it belongs on
// scrape and snapshot paths, not per-request ones.
func (s *SLOTracker) Quantile(q float64) time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	buf := make([]float64, s.n)
	copy(buf, s.samples[:s.n])
	s.mu.Unlock()
	if len(buf) == 0 || q <= 0 || q > 1 {
		return 0
	}
	sort.Float64s(buf)
	rank := int(math.Ceil(float64(len(buf))*q)) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(buf) {
		rank = len(buf) - 1
	}
	return time.Duration(buf[rank] * float64(time.Second))
}

func (s *SLOTracker) burnRatio() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n == 0 {
		return 0
	}
	return (float64(s.overN) / float64(s.n)) / 0.01
}
