package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSLOQuantiles(t *testing.T) {
	s := NewSLOTracker(SLOOptions{Target: 100 * time.Millisecond})
	for i := 1; i <= 100; i++ {
		s.Observe(time.Duration(i) * time.Millisecond)
	}
	if got := s.Quantile(0.50); got != 50*time.Millisecond {
		t.Fatalf("p50 = %v, want 50ms", got)
	}
	if got := s.Quantile(0.99); got != 99*time.Millisecond {
		t.Fatalf("p99 = %v, want 99ms", got)
	}
	if got := s.Quantile(1); got != 100*time.Millisecond {
		t.Fatalf("p100 = %v, want 100ms", got)
	}
	if s.Breached() {
		t.Fatal("exactly 0 over-target samples reported as breach")
	}
}

func TestSLOBreachAndRecovery(t *testing.T) {
	var fired []time.Duration
	s := NewSLOTracker(SLOOptions{
		Target:   10 * time.Millisecond,
		Window:   200,
		OnBreach: func(p99 time.Duration) { fired = append(fired, p99) },
	})
	// 100 fast samples arm the detector without breaching.
	for i := 0; i < 100; i++ {
		s.Observe(time.Millisecond)
	}
	if s.Breached() || len(fired) != 0 {
		t.Fatal("breached with zero over-target samples")
	}
	// Two slow samples put the window over the 1% budget (2/102 > 1%).
	s.Observe(50 * time.Millisecond)
	if s.Breached() {
		t.Fatal("breached at exactly one over-target sample in 101")
	}
	s.Observe(50 * time.Millisecond)
	if !s.Breached() {
		t.Fatal("not breached at 2 over-target samples in 102")
	}
	if len(fired) != 1 {
		t.Fatalf("OnBreach fired %d times, want 1", len(fired))
	}
	if fired[0] < 10*time.Millisecond {
		t.Fatalf("breach callback got p99 %v, want over the target", fired[0])
	}
	// Fast samples dilute the window back under half the budget (hysteresis):
	// recovery at overN*200 <= n means 2 over-target needs n >= 400 — but the
	// window caps at 200, so recovery happens when the slow samples evict.
	for i := 0; i < 200; i++ {
		s.Observe(time.Millisecond)
	}
	if s.Breached() {
		t.Fatal("still breached after the slow samples left the window")
	}
	if len(fired) != 1 {
		t.Fatal("recovery fired the breach callback")
	}
}

func TestSLOBreachRateLimit(t *testing.T) {
	fired := 0
	s := NewSLOTracker(SLOOptions{
		Target:      time.Millisecond,
		Window:      100,
		MinInterval: time.Hour,
		OnBreach:    func(time.Duration) { fired++ },
	})
	slow := func(n int) {
		for i := 0; i < n; i++ {
			s.Observe(10 * time.Millisecond)
		}
	}
	fast := func(n int) {
		for i := 0; i < n; i++ {
			s.Observe(time.Microsecond)
		}
	}
	fast(99)
	slow(3) // breach one
	if fired != 1 {
		t.Fatalf("first breach fired %d times, want 1", fired)
	}
	fast(100) // recover (slow samples evicted from the 100-window)
	if s.Breached() {
		t.Fatal("window of pure fast samples still breached")
	}
	slow(3) // breach two, inside MinInterval: counted but silent
	if !s.Breached() {
		t.Fatal("second breach not detected")
	}
	if fired != 1 {
		t.Fatalf("rate-limited breach still fired (%d times)", fired)
	}
}

func TestSLOMetrics(t *testing.T) {
	reg := NewRegistry()
	s := NewSLOTracker(SLOOptions{Target: 10 * time.Millisecond, Window: 100, Registry: reg})
	for i := 0; i < 98; i++ {
		s.Observe(time.Millisecond)
	}
	s.Observe(20 * time.Millisecond)
	s.Observe(20 * time.Millisecond)

	var sb strings.Builder
	reg.WritePrometheus(&sb)
	exp := sb.String()
	for _, frag := range []string{
		"gnnlab_slo_target_seconds 0.01",
		"gnnlab_slo_requests_total 100",
		"gnnlab_slo_over_target_total 2",
		"gnnlab_slo_breaches_total 1",
		`gnnlab_slo_latency_seconds{quantile="p99"} 0.02`,
		"gnnlab_slo_burn_ratio 2",
	} {
		if !strings.Contains(exp, frag) {
			t.Fatalf("exposition missing %q:\n%s", frag, exp)
		}
	}
	if err := reg.Lint(); err != nil {
		t.Fatalf("SLO metrics fail the registry lint: %v", err)
	}
}

func TestSLONilAndConcurrent(t *testing.T) {
	var s *SLOTracker
	s.Observe(time.Second)
	if s.Breached() || s.Quantile(0.99) != 0 {
		t.Fatal("nil SLO tracker not inert")
	}

	real := NewSLOTracker(SLOOptions{Target: time.Millisecond, Window: 64})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				real.Observe(time.Duration(i%5) * time.Millisecond)
				real.Quantile(0.99)
				real.Breached()
			}
		}()
	}
	wg.Wait()
}

// TestSLOWindowWrapAccounting drives the ring through several full wraps
// with mixed over/under samples and checks, after every single observation,
// that the tracker's incremental eviction accounting (overN, n) matches a
// from-scratch recount of a reference sliding window — the whitebox proof
// that no eviction is ever double-counted or missed across wraps. Breach and
// recovery transitions (including recovery at exactly the overN*200 == n
// hysteresis boundary) are checked against the same reference.
func TestSLOWindowWrapAccounting(t *testing.T) {
	const target = 100 * time.Millisecond
	under, over := 10*time.Millisecond, 250*time.Millisecond
	cases := []struct {
		name   string
		window int
		steps  int // >= 3*window plus slack: at least three full wraps
		isOver func(i int) bool
	}{
		{
			// Window below minBreachSamples: the regression case for the
			// arming bug, where breach detection could never engage.
			name: "small-window-breach-recover-rebreach", window: 8, steps: 48,
			isOver: func(i int) bool { return i < 10 || (i >= 24 && i < 28) },
		},
		{
			// Window above minBreachSamples, recovery crossing exactly the
			// hysteresis boundary: one over-target sample in a full window of
			// 200 gives overN*200 == n precisely.
			name: "hysteresis-boundary", window: 200, steps: 700,
			isOver: func(i int) bool { return (i >= 210 && i < 220) || i == 430 },
		},
		{
			// Alternating bursts: repeated breach/recover cycles across wraps.
			name: "periodic-bursts", window: 16, steps: 96,
			isOver: func(i int) bool { return i%32 < 4 },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fires := 0
			s := NewSLOTracker(SLOOptions{
				Target:   target,
				Window:   tc.window,
				OnBreach: func(time.Duration) { fires++ },
			})
			arm := minBreachSamples
			if tc.window < arm {
				arm = tc.window
			}
			var win []bool // reference sliding window of over-target flags
			breached := false
			wantFires, recoveries := 0, 0
			for i := 0; i < tc.steps; i++ {
				d := under
				if tc.isOver(i) {
					d = over
				}
				s.Observe(d)
				win = append(win, d > target)
				if len(win) > tc.window {
					win = win[1:]
				}
				overN := 0
				for _, o := range win {
					if o {
						overN++
					}
				}
				s.mu.Lock()
				gotOver, gotN := s.overN, s.n
				s.mu.Unlock()
				if gotN != len(win) || gotOver != overN {
					t.Fatalf("step %d: tracker holds overN=%d n=%d, reference recount overN=%d n=%d",
						i, gotOver, gotN, overN, len(win))
				}
				inBreach := len(win) >= arm && overN*100 > len(win)
				switch {
				case inBreach && !breached:
					breached = true
					wantFires++
				case breached && overN*200 <= len(win):
					breached = false
					recoveries++
				}
				if got := s.Breached(); got != breached {
					t.Fatalf("step %d: Breached() = %v, reference = %v (overN=%d n=%d)",
						i, got, breached, overN, len(win))
				}
			}
			if fires != wantFires {
				t.Fatalf("OnBreach fired %d times, reference expects %d", fires, wantFires)
			}
			if wantFires == 0 || recoveries == 0 {
				t.Fatalf("case exercised %d breaches and %d recoveries; want both nonzero", wantFires, recoveries)
			}
			if tc.steps < 3*tc.window {
				t.Fatalf("case drives %d steps over a %d-window: fewer than 3 wraps", tc.steps, tc.window)
			}
		})
	}
}

func TestSLORequiresTarget(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewSLOTracker accepted a zero target")
		}
	}()
	NewSLOTracker(SLOOptions{})
}

// Breached reports whether the rolling window is currently in p99 breach.
func (s *SLOTracker) Breached() bool {
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.breached
}
