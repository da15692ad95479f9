// Package profile implements the measurement instruments behind the paper's
// evaluation: the per-epoch phase breakdown of Figs 1-2 (data loading /
// forward / backward / parameter update / other), the layer-wise timing of
// Fig 3, and epoch statistics aggregation.
package profile

import (
	"fmt"
	"math"
	"strings"
	"time"
)

// Phase names the five components of the paper's execution-time breakdown.
type Phase int

// Breakdown phases in presentation order.
const (
	PhaseDataLoad Phase = iota
	PhaseForward
	PhaseBackward
	PhaseUpdate
	PhaseOther
	numPhases
)

// String implements fmt.Stringer.
func (p Phase) String() string {
	switch p {
	case PhaseDataLoad:
		return "data-load"
	case PhaseForward:
		return "forward"
	case PhaseBackward:
		return "backward"
	case PhaseUpdate:
		return "update"
	case PhaseOther:
		return "other"
	}
	return fmt.Sprintf("phase(%d)", int(p))
}

// Breakdown accumulates time per phase across an epoch.
type Breakdown struct {
	durations [numPhases]time.Duration
}

// Add accumulates d into phase p.
func (b *Breakdown) Add(p Phase, d time.Duration) { b.durations[p] += d }

// Get returns the accumulated time for phase p.
func (b *Breakdown) Get(p Phase) time.Duration { return b.durations[p] }

// Total returns the sum over all phases.
func (b *Breakdown) Total() time.Duration {
	var t time.Duration
	for _, d := range b.durations {
		t += d
	}
	return t
}

// AddInto accumulates b into dst phase by phase.
func (b *Breakdown) AddInto(dst *Breakdown) {
	for p := Phase(0); p < numPhases; p++ {
		dst.durations[p] += b.durations[p]
	}
}

// Scale divides every phase by n (averaging accumulated epochs).
func (b *Breakdown) Scale(n int) {
	if n <= 0 {
		return
	}
	for p := Phase(0); p < numPhases; p++ {
		b.durations[p] /= time.Duration(n)
	}
}

// String renders the breakdown as "phase=dur" pairs.
func (b *Breakdown) String() string {
	var parts []string
	for p := Phase(0); p < numPhases; p++ {
		parts = append(parts, fmt.Sprintf("%s=%s", p, b.durations[p].Round(time.Microsecond)))
	}
	return strings.Join(parts, " ")
}

// ModeledDuration translates a measured host interval onto the simulated
// accelerator's timeline: the host-side share (wall time minus the time the
// host spent executing kernel math in the device's stead) stays real, while
// the kernels take their cost-model duration. This is how the reproduction
// reports times a GPU-backed run would see: host work (batching, op
// dispatch, the tape) is host work, kernel work is device work.
func ModeledDuration(wall, kernelHostTime, kernelSimTime time.Duration) time.Duration {
	host := wall - kernelHostTime
	if host < 0 {
		host = 0
	}
	return host + kernelSimTime
}

// LayerTimes records named sub-timers within one forward pass (Fig 3's
// conv1..conv4 / pooling / classifier series). A nil receiver is a no-op, so
// models can time unconditionally.
type LayerTimes struct {
	names     []string
	durations map[string]time.Duration
}

// NewLayerTimes returns an empty recorder.
func NewLayerTimes() *LayerTimes {
	return &LayerTimes{durations: map[string]time.Duration{}}
}

// Time runs f, charging its wall duration to name.
func (lt *LayerTimes) Time(name string, f func()) {
	if lt == nil {
		f()
		return
	}
	start := time.Now()
	f()
	lt.add(name, time.Since(start))
}

// TimeModeled runs f and charges its modeled duration (see ModeledDuration):
// host share at wall time, kernel share at cost-model time. kernelTimes must
// return the accumulated (host kernel wall, kernel sim) clocks of the device
// f's kernels run on.
func (lt *LayerTimes) TimeModeled(kernelTimes func() (host, sim time.Duration), name string, f func()) {
	if lt == nil {
		f()
		return
	}
	h0, s0 := kernelTimes()
	start := time.Now()
	f()
	wall := time.Since(start)
	h1, s1 := kernelTimes()
	lt.add(name, ModeledDuration(wall, h1-h0, s1-s0))
}

func (lt *LayerTimes) add(name string, d time.Duration) {
	if _, ok := lt.durations[name]; !ok {
		lt.names = append(lt.names, name)
	}
	lt.durations[name] += d
}

// Names returns the recorded layer names in first-use order.
func (lt *LayerTimes) Names() []string { return lt.names }

// Get returns the accumulated duration for name.
func (lt *LayerTimes) Get(name string) time.Duration { return lt.durations[name] }

// Stats computes mean and sample standard deviation.
func Stats(values []float64) (mean, std float64) {
	if len(values) == 0 {
		return 0, 0
	}
	for _, v := range values {
		mean += v
	}
	mean /= float64(len(values))
	if len(values) < 2 {
		return mean, 0
	}
	for _, v := range values {
		d := v - mean
		std += float64(d * d)
	}
	std = math.Sqrt(std / float64(len(values)-1))
	return mean, std
}
