// Package obs is the process-wide telemetry layer: a concurrency-safe
// metrics registry with deterministic Prometheus text exposition, and a span
// tracer whose output merges with the simulated device's kernel trace onto
// one Chrome-trace/Perfetto timeline.
//
// The source paper is a measurement study — its contribution *is*
// instrumentation (phase breakdowns, layer timings, memory and utilization
// counters). This package is where all of those measurements meet: training
// loops, the batch loader, the worker pool, the simulated devices and the
// serving subsystem all report into one Registry and one Tracer, so a single
// scrape (or a single trace file) shows the whole system the way the paper's
// nvprof/nvidia-smi figures do.
//
// Conventions:
//
//   - Metric and label names must match ^[a-z][a-z0-9_]*$ and every metric
//     carries non-empty help text; violations panic at registration.
//   - Registration is get-or-create: asking for a metric that already exists
//     with the identical signature (kind, help, labels, bounds) returns the
//     existing instrument, so independent subsystems can share a registry
//     without coordination. A conflicting re-registration panics.
//   - All instruments are safe for concurrent use, and every instrument
//     method is a no-op on a nil receiver, so instrumented code paths never
//     need "is telemetry on?" branches.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/profile"
)

// Kind is a metric family's type.
type Kind int

// Metric kinds, matching the Prometheus exposition TYPE names.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String implements fmt.Stringer with the Prometheus TYPE spelling.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Registry holds metric families and renders them deterministically. Create
// one with NewRegistry, or use the process-wide Default.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// family is one named metric with a fixed kind, help text and label schema.
type family struct {
	name   string
	help   string
	kind   Kind
	labels []string
	bounds []float64 // histogram bucket upper bounds

	mu       sync.Mutex
	children map[string]*instrument
}

// instrument is one (family, label values) time series.
type instrument struct {
	fam    *family
	values []string // label values, len == len(fam.labels)

	bits atomic.Uint64 // float64 bits for counters and gauges

	fnMu sync.Mutex
	fn   func() float64 // callback series; overrides bits when non-nil

	histMu sync.Mutex
	hist   *profile.Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry. CLIs that want one scrape to
// cover every subsystem register everything here.
func Default() *Registry { return defaultRegistry }

// family looks up or creates a metric family, panicking on invalid names or
// a conflicting re-registration.
func (r *Registry) family(name, help string, kind Kind, labels []string, bounds []float64) *family {
	// The naming law lives in namelaw.go, shared with Lint and with gnnvet's
	// static metric-names check.
	if err := CheckMetricName(name); err != nil {
		panic("obs: " + err.Error())
	}
	if err := CheckHelp(name, help); err != nil {
		panic("obs: " + err.Error())
	}
	if err := CheckLabelNames(name, labels); err != nil {
		panic("obs: " + err.Error())
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || f.help != help || !equalStrings(f.labels, labels) || !equalFloats(f.bounds, bounds) {
			panic(fmt.Sprintf("obs: conflicting registration of metric %s (%s) as %s", name, f.kind, kind))
		}
		return f
	}
	f := &family{
		name: name, help: help, kind: kind,
		labels:   append([]string(nil), labels...),
		bounds:   append([]float64(nil), bounds...),
		children: map[string]*instrument{},
	}
	r.families[name] = f
	return f
}

// child looks up or creates the series for the given label values.
func (f *family) child(values []string) *instrument {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.children[key]; ok {
		return m
	}
	m := &instrument{fam: f, values: append([]string(nil), values...)}
	if f.kind == KindHistogram {
		m.hist = profile.NewHistogram(f.bounds...)
	}
	f.children[key] = m
	return m
}

func (m *instrument) add(v float64) {
	for {
		old := m.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if m.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (m *instrument) set(v float64) { m.bits.Store(math.Float64bits(v)) }

func (m *instrument) value() float64 {
	m.fnMu.Lock()
	fn := m.fn
	m.fnMu.Unlock()
	if fn != nil {
		return fn()
	}
	return math.Float64frombits(m.bits.Load())
}

func (m *instrument) setFunc(fn func() float64) {
	m.fnMu.Lock()
	m.fn = fn
	m.fnMu.Unlock()
}

// Counter is a monotonically increasing metric.
type Counter struct{ m *instrument }

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by v (panics on negative v — counters only go
// up; use a Gauge for values that can fall).
func (c *Counter) Add(v float64) {
	if c == nil {
		return
	}
	if v < 0 {
		panic(fmt.Sprintf("obs: counter %s decreased by %g", c.m.fam.name, -v))
	}
	c.m.add(v)
}

// Value returns the current count.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return c.m.value()
}

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// With returns the counter for the given label values (created on first use).
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	return &Counter{v.f.child(values)}
}

// Func installs a callback series: the counter for the given label values
// reads fn at exposition time. The callback must not touch the registry.
func (v *CounterVec) Func(fn func() float64, values ...string) {
	if v == nil {
		return
	}
	v.f.child(values).setFunc(fn)
}

// Gauge is a metric that can go up and down.
type Gauge struct{ m *instrument }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.m.set(v)
}

// Value returns the current value.
//
//gnnvet:allow unreachable -- TestCoalesceSaturatedBurstsStayFull
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.m.value()
}

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// Func installs a callback series for the given label values.
func (v *GaugeVec) Func(fn func() float64, values ...string) {
	if v == nil {
		return
	}
	v.f.child(values).setFunc(fn)
}

// Histogram is a locked wrapper around profile.Histogram, safe for
// concurrent Observe from any number of goroutines — the synchronization
// profile.Histogram itself explicitly does not provide.
type Histogram struct{ m *instrument }

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.m.histMu.Lock()
	h.m.hist.Observe(v)
	h.m.histMu.Unlock()
}

// Snapshot returns an independent copy of the underlying histogram.
func (h *Histogram) Snapshot() *profile.Histogram {
	if h == nil {
		return nil
	}
	h.m.histMu.Lock()
	defer h.m.histMu.Unlock()
	return h.m.hist.Clone()
}

// Counter registers (or retrieves) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return &Counter{r.family(name, help, KindCounter, nil, nil).child(nil)}
}

// CounterVec registers (or retrieves) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.family(name, help, KindCounter, labels, nil)}
}

// CounterFunc registers an unlabeled counter whose value is read from fn at
// exposition time (for externally accumulated monotonic counts).
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.family(name, help, KindCounter, nil, nil).child(nil).setFunc(fn)
}

// Gauge registers (or retrieves) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return &Gauge{r.family(name, help, KindGauge, nil, nil).child(nil)}
}

// GaugeVec registers (or retrieves) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.family(name, help, KindGauge, labels, nil)}
}

// GaugeFunc registers an unlabeled callback gauge, read at exposition time.
// Re-registering replaces the callback (the latest owner wins).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.family(name, help, KindGauge, nil, nil).child(nil).setFunc(fn)
}

// Histogram registers (or retrieves) an unlabeled histogram over the given
// strictly ascending bucket upper bounds.
func (r *Registry) Histogram(name, help string, bounds ...float64) *Histogram {
	return &Histogram{r.family(name, help, KindHistogram, nil, bounds).child(nil)}
}

// snapshotFamilies returns the families sorted by name.
func (r *Registry) snapshotFamilies() []*family {
	r.mu.RLock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// snapshotChildren returns a family's series sorted by label values.
func (f *family) snapshotChildren() []*instrument {
	f.mu.Lock()
	kids := make([]*instrument, 0, len(f.children))
	for _, m := range f.children {
		kids = append(kids, m)
	}
	f.mu.Unlock()
	sort.Slice(kids, func(i, j int) bool {
		return strings.Join(kids[i].values, "\x00") < strings.Join(kids[j].values, "\x00")
	})
	return kids
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// labelString renders {k="v",...}; extra appends one more pair (for "le").
func labelString(names, values []string, extraKey, extraVal string) string {
	if len(names) == 0 && extraKey == "" {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `%s="%s"`, n, labelEscaper.Replace(values[i]))
	}
	if extraKey != "" {
		if len(names) > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `%s="%s"`, extraKey, extraVal)
	}
	sb.WriteByte('}')
	return sb.String()
}

// WritePrometheus renders the registry in Prometheus text exposition format:
// families sorted by name, series sorted by label values, every family
// preceded by its HELP and TYPE lines. The output is deterministic for
// deterministic instrument values.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return r.write(w, true)
}

// WriteSnapshot renders just the "name{labels} value" lines — the plain-text
// /debug/vars form.
func (r *Registry) WriteSnapshot(w io.Writer) error {
	return r.write(w, false)
}

func (r *Registry) write(w io.Writer, meta bool) error {
	for _, f := range r.snapshotFamilies() {
		if meta {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind); err != nil {
				return err
			}
		}
		for _, m := range f.snapshotChildren() {
			if err := m.write(w); err != nil {
				return err
			}
		}
	}
	return nil
}

func (m *instrument) write(w io.Writer) error {
	f := m.fam
	if f.kind == KindHistogram {
		m.histMu.Lock()
		h := m.hist.Clone()
		m.histMu.Unlock()
		// One pass over the buckets: per-level Cumulative(i) calls would make
		// the exposition O(buckets²) per scrape.
		cum := h.Cumulatives()
		for i, b := range h.Bounds() {
			le := fmt.Sprintf("%g", b)
			if _, err := fmt.Fprintf(w, "%s_bucket%s %g\n", f.name,
				labelString(f.labels, m.values, "le", le), float64(cum[i])); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %g\n", f.name,
			labelString(f.labels, m.values, "le", "+Inf"), float64(h.N())); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %g\n", f.name,
			labelString(f.labels, m.values, "", ""), h.Sum()); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %g\n", f.name,
			labelString(f.labels, m.values, "", ""), float64(h.N()))
		return err
	}
	_, err := fmt.Fprintf(w, "%s%s %g\n", f.name,
		labelString(f.labels, m.values, "", ""), m.value())
	return err
}

// Lint re-validates every registered family against the registry's naming
// law: a valid name, non-empty help, valid and unique label names, and for
// histograms at least one bucket bound. Registration already enforces all of
// this by panicking, so Lint returning an error means the registry was
// corrupted through unexported state — it exists as the CI-invokable check
// that the enforcement holds.
//
//gnnvet:allow unreachable -- TestProjectMetricsLint
func (r *Registry) Lint() error {
	for _, f := range r.snapshotFamilies() {
		if err := CheckMetricName(f.name); err != nil {
			return fmt.Errorf("obs: %w", err)
		}
		if err := CheckHelp(f.name, f.help); err != nil {
			return fmt.Errorf("obs: %w", err)
		}
		if err := CheckLabelNames(f.name, f.labels); err != nil {
			return fmt.Errorf("obs: %w", err)
		}
		if f.kind == KindHistogram {
			if err := CheckHistogramBounds(f.name, f.bounds); err != nil {
				return fmt.Errorf("obs: %w", err)
			}
		}
		for _, m := range f.snapshotChildren() {
			if len(m.values) != len(f.labels) {
				return fmt.Errorf("obs: metric %s series has %d label values for %d labels", f.name, len(m.values), len(f.labels))
			}
		}
	}
	return nil
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
