package main

import (
	"math"
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// subWindows is how many parts a measurement window is cut into; see estimate.
const subWindows = 6

// sample is one operation the load generator issued: a request, or one
// training round.
type sample struct {
	// start is the offset from the window's opening at which the operation
	// was due (open loop) or issued (closed loop).
	start time.Duration
	// lat is the latency charged to the operation; a failed, refused or
	// expired request is charged failLatency.
	lat time.Duration
	ok  bool
}

// failLatency is what a failed request costs in every latency sample: the
// server's request timeout, so a failure can never improve a percentile.
//
// The timeout is 10 s, not gnnserve's 1 s default. The sizing host freezes
// for more than a second now and then; with 1 s each freeze expired every
// request in flight (128 of 33 090 in one batch_uniform run of forty; a 1.5 s
// SIGSTOP reproduces it), and a run with a failed request is reported
// incorrect, through no fault of the program. At 10 s a freeze is a slow
// request, which the whole-window loadgen.latency_* metrics show and the
// second-best sixth sheds. No request of a healthy run comes near either
// limit.
const failLatency = 10 * time.Second

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending slice, or 0 for an empty one.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

func sortedCopy(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}

// median returns the middle value (mean of the two middle values for an even
// count), or 0 for an empty slice.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := sortedCopy(vals)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// latenciesMS returns the samples' charged latencies in milliseconds,
// ascending.
func latenciesMS(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = float64(s.lat) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

// The estimators below rest on one observation about this kind of host (a
// small shared VM): its noise is one-sided and additive. A neighbour's burst
// or a stolen core only ever slows a stretch of the window down, by tens of
// per cent for seconds at a time, so a whole-window mean, median or p99 moves
// with how many bad stretches the window happened to catch. Each end-to-end
// metric is therefore computed per part of the window (a sixth of it), and
// the second-best part is reported: good enough to shed the disturbed parts,
// not the very best so that one lucky part cannot set the number. A real
// regression moves every part, and so moves the second-best.

// mark is one reading of the meter: time since the window opened, process
// CPU time, and correct operations completed so far.
type mark struct {
	at  time.Duration
	cpu time.Duration
	ok  int64
}

// meter takes marks while a window runs. Serving workloads mark on a timer
// at every sixth of the window; the training workload marks after every
// round, so that no part ends in the middle of an operation.
type meter struct {
	start time.Time
	ok    atomic.Int64
	mu    sync.Mutex
	marks []mark
}

func newMeter() *meter {
	m := &meter{start: time.Now()}
	m.mark()
	return m
}

func (m *meter) mark() {
	mk := mark{at: time.Since(m.start), cpu: cpuTime(), ok: m.ok.Load()}
	m.mu.Lock()
	m.marks = append(m.marks, mk)
	m.mu.Unlock()
}

// tick marks at every sixth of the window until it closes.
func (m *meter) tick(window time.Duration) {
	for k := 1; k <= subWindows; k++ {
		time.Sleep(time.Until(m.start.Add(window * time.Duration(k) / subWindows)))
		m.mark()
	}
}

// part is a stretch of the window between two marks.
type part struct {
	from, to time.Duration
	cpu      time.Duration
	ok       int64
	lat      []float64 // ms, ascending: operations that completed in the part
}

// parts cuts the window at its marks into stretches at least a sixth of the
// window long and files every sample under the part it completed in.
func parts(marks []mark, samples []sample, window time.Duration) []part {
	var out []part
	least := window / subWindows
	from := marks[0]
	for _, mk := range marks[1:] {
		if mk.at-from.at >= least-least/100 { // the timer may fire a hair early
			out = append(out, part{from: from.at, to: mk.at, cpu: mk.cpu - from.cpu, ok: mk.ok - from.ok})
			from = mk
		}
	}
	for _, s := range samples {
		done := s.start + s.lat
		if !s.ok {
			done = s.start // a failure is charged failLatency; it did not take it
		}
		for i := range out {
			if done > out[i].from && done <= out[i].to {
				out[i].lat = append(out[i].lat, float64(s.lat)/float64(time.Millisecond))
				break
			}
		}
	}
	for i := range out {
		sort.Float64s(out[i].lat)
	}
	return out
}

// secondBest returns the second-smallest value, or the second-largest when
// higher is better; of one value, that value.
func secondBest(vals []float64, higherIsBetter bool) float64 {
	s := sortedCopy(vals)
	switch {
	case len(s) == 0:
		return 0
	case len(s) == 1:
		return s[0]
	case higherIsBetter:
		return s[len(s)-2]
	}
	return s[1]
}

// windowStats are a window's end-to-end estimates.
type windowStats struct {
	throughput float64 // correct operations per second
	p50, p99   float64 // ms
	cpuPerOp   float64 // ms of process CPU per correct operation
}

// estimate reports each metric's second-best part.
func estimate(ps []part) windowStats {
	var rates, p50s, p99s, cpus []float64
	for _, p := range ps {
		rates = append(rates, float64(p.ok)/(p.to-p.from).Seconds())
		if len(p.lat) > 0 {
			p50s = append(p50s, percentile(p.lat, 50))
			p99s = append(p99s, percentile(p.lat, 99))
		}
		if p.ok > 0 {
			cpus = append(cpus, ms(p.cpu)/float64(p.ok))
		}
	}
	return windowStats{
		throughput: secondBest(rates, true),
		p50:        secondBest(p50s, false),
		p99:        secondBest(p99s, false),
		cpuPerOp:   secondBest(cpus, false),
	}
}

// poissonSchedule returns the due offsets of a Poisson arrival process of
// the given rate over the window: a pure function of the seed.
func poissonSchedule(seed uint64, rate float64, window time.Duration) []time.Duration {
	rng := rand.New(rand.NewPCG(seed, 0x706f6973736f6e))
	var due []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= window {
			return due
		}
		due = append(due, d)
	}
}

// walkOrder is the seeded order in which a workload walks its corpus.
func walkOrder(seed uint64, n int) []int {
	return rand.New(rand.NewPCG(seed, 0x77616c6b)).Perm(n)
}
