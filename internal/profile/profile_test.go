package profile

import (
	"math"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestBreakdownAccumulation(t *testing.T) {
	var b Breakdown
	b.Add(PhaseForward, 10*time.Millisecond)
	b.Add(PhaseForward, 5*time.Millisecond)
	b.Add(PhaseBackward, 20*time.Millisecond)
	if b.Get(PhaseForward) != 15*time.Millisecond {
		t.Fatalf("forward = %v", b.Get(PhaseForward))
	}
	if b.Total() != 35*time.Millisecond {
		t.Fatalf("total = %v", b.Total())
	}
}

func TestBreakdownTime(t *testing.T) {
	var b Breakdown
	ran := false
	d := b.Time(PhaseUpdate, func() { ran = true })
	if !ran || d < 0 {
		t.Fatal("Time must run f")
	}
	if b.Get(PhaseUpdate) != d {
		t.Fatal("duration must be charged to the phase")
	}
	// Nil receiver still runs f.
	var nilB *Breakdown
	ran = false
	nilB.Time(PhaseUpdate, func() { ran = true })
	if !ran {
		t.Fatal("nil breakdown must still run f")
	}
}

func TestSetOther(t *testing.T) {
	var b Breakdown
	b.Add(PhaseDataLoad, 30*time.Millisecond)
	b.Add(PhaseForward, 20*time.Millisecond)
	b.SetOther(100 * time.Millisecond)
	if b.Get(PhaseOther) != 50*time.Millisecond {
		t.Fatalf("other = %v, want 50ms", b.Get(PhaseOther))
	}
	// Elapsed below measured clamps to zero.
	b.SetOther(10 * time.Millisecond)
	if b.Get(PhaseOther) != 0 {
		t.Fatal("other must clamp at zero")
	}
}

func TestAddIntoAndScale(t *testing.T) {
	var a, dst Breakdown
	a.Add(PhaseForward, 10*time.Millisecond)
	a.AddInto(&dst)
	a.AddInto(&dst)
	dst.Scale(2)
	if dst.Get(PhaseForward) != 10*time.Millisecond {
		t.Fatalf("averaged forward = %v", dst.Get(PhaseForward))
	}
}

func TestPhaseString(t *testing.T) {
	names := map[Phase]string{
		PhaseDataLoad: "data-load", PhaseForward: "forward",
		PhaseBackward: "backward", PhaseUpdate: "update", PhaseOther: "other",
	}
	for p, want := range names {
		if p.String() != want {
			t.Fatalf("%d.String() = %q", p, p.String())
		}
	}
}

func TestLayerTimes(t *testing.T) {
	lt := NewLayerTimes()
	lt.Time("conv1", func() { time.Sleep(time.Millisecond) })
	lt.Time("conv2", func() {})
	lt.Time("conv1", func() {})
	names := lt.Names()
	if len(names) != 2 || names[0] != "conv1" || names[1] != "conv2" {
		t.Fatalf("names = %v", names)
	}
	if lt.Get("conv1") < time.Millisecond {
		t.Fatalf("conv1 = %v", lt.Get("conv1"))
	}
	// Nil recorder runs f without panicking.
	var nilLT *LayerTimes
	ran := false
	nilLT.Time("x", func() { ran = true })
	if !ran {
		t.Fatal("nil LayerTimes must run f")
	}
}

func TestStats(t *testing.T) {
	mean, std := Stats([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if mean != 5 {
		t.Fatalf("mean = %v", mean)
	}
	if math.Abs(std-2.138) > 0.01 {
		t.Fatalf("std = %v", std)
	}
	m1, s1 := Stats([]float64{3})
	if m1 != 3 || s1 != 0 {
		t.Fatal("single-value stats wrong")
	}
	m0, s0 := Stats(nil)
	if m0 != 0 || s0 != 0 {
		t.Fatal("empty stats wrong")
	}
}

func TestMedian(t *testing.T) {
	if Median([]float64{3, 1, 2}) != 2 {
		t.Fatal("odd median wrong")
	}
	if Median([]float64{4, 1, 2, 3}) != 2.5 {
		t.Fatal("even median wrong")
	}
	if Median(nil) != 0 {
		t.Fatal("empty median wrong")
	}
	// Input must not be mutated.
	in := []float64{3, 1, 2}
	Median(in)
	if in[0] != 3 {
		t.Fatal("Median must not sort its input")
	}
}

func TestBreakdownString(t *testing.T) {
	var b Breakdown
	b.Add(PhaseForward, 2*time.Millisecond)
	s := b.String()
	if !strings.Contains(s, "forward=2ms") {
		t.Fatalf("String missing phase: %q", s)
	}
}

func TestModeledDuration(t *testing.T) {
	// Host share stays, kernel host time is exchanged for sim time.
	got := ModeledDuration(10*time.Millisecond, 8*time.Millisecond, time.Millisecond)
	if got != 3*time.Millisecond {
		t.Fatalf("ModeledDuration = %v, want 3ms", got)
	}
	// Host share clamps at zero when kernel wall exceeds total wall.
	got = ModeledDuration(5*time.Millisecond, 9*time.Millisecond, time.Millisecond)
	if got != time.Millisecond {
		t.Fatalf("clamped ModeledDuration = %v, want 1ms", got)
	}
}

func TestTimeModeled(t *testing.T) {
	lt := NewLayerTimes()
	var host, sim time.Duration
	clock := func() (time.Duration, time.Duration) { return host, sim }
	lt.TimeModeled(clock, "layer", func() {
		host += 50 * time.Hour // absurd kernel host time forces clamping
		sim += 2 * time.Millisecond
	})
	got := lt.Get("layer")
	// Host share clamps to ~0; the sim delta dominates.
	if got < 2*time.Millisecond || got > 3*time.Millisecond {
		t.Fatalf("TimeModeled = %v, want ~2ms", got)
	}
	// Nil recorder still runs f.
	var nilLT *LayerTimes
	ran := false
	nilLT.TimeModeled(clock, "x", func() { ran = true })
	if !ran {
		t.Fatal("nil TimeModeled must run f")
	}
}

// Time runs f, charging its duration to phase p, and returns the duration.
func (b *Breakdown) Time(p Phase, f func()) time.Duration {
	start := time.Now()
	f()
	d := time.Since(start)
	if b != nil {
		b.Add(p, d)
	}
	return d
}

// SetOther assigns to PhaseOther whatever part of elapsed the measured phases
// do not cover (clamped at zero).
func (b *Breakdown) SetOther(elapsed time.Duration) {
	var measured time.Duration
	for p := PhaseDataLoad; p < PhaseOther; p++ {
		measured += b.durations[p]
	}
	if elapsed > measured {
		b.durations[PhaseOther] = elapsed - measured
	} else {
		b.durations[PhaseOther] = 0
	}
}

// Median returns the median of values (0 for empty input).
func Median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
