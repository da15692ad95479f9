package obs

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// populatedRegistry builds a registry exercising every instrument kind, with
// deterministic values, for the exposition golden test.
func populatedRegistry() *Registry {
	r := NewRegistry()
	c := r.Counter("test_requests_total", "Requests handled.")
	c.Add(41)
	c.Inc()
	cv := r.CounterVec("test_outcomes_total", "Requests by outcome.", "outcome")
	cv.With("accepted").Add(7)
	cv.With("rejected").Add(2)
	g := r.Gauge("test_queue_depth", "Items queued.")
	g.Set(3)
	gv := r.GaugeVec("test_temperature", "Temperature by sensor.", "sensor", "unit")
	gv.Func(func() float64 { return 21.5 }, `weird"name`, "c")
	gv.Func(func() float64 { return 63 }, "cpu", "c")
	r.GaugeFunc("test_callback", "A callback gauge.", func() float64 { return 2.5 })
	r.CounterFunc("test_callback_total", "A callback counter.", func() float64 { return 9 })
	h := r.Histogram("test_latency_seconds", "Request latency.", 0.01, 0.1, 1)
	for _, v := range []float64{0.005, 0.05, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	return r
}

func TestExpositionGolden(t *testing.T) {
	var sb strings.Builder
	if err := populatedRegistry().WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	got := sb.String()

	golden := filepath.Join("testdata", "exposition.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if got != string(want) {
		t.Errorf("exposition differs from %s (run with -update to regenerate)\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
}

func TestExpositionDeterministic(t *testing.T) {
	var a, b strings.Builder
	r := populatedRegistry()
	r.WritePrometheus(&a)
	r.WritePrometheus(&b)
	if a.String() != b.String() {
		t.Error("two expositions of the same registry differ")
	}
}

func TestSnapshotOmitsMeta(t *testing.T) {
	var sb strings.Builder
	if err := populatedRegistry().WriteSnapshot(&sb); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	out := sb.String()
	if strings.Contains(out, "# HELP") || strings.Contains(out, "# TYPE") {
		t.Errorf("snapshot contains meta lines:\n%s", out)
	}
	if !strings.Contains(out, "test_requests_total 42\n") {
		t.Errorf("snapshot missing counter line:\n%s", out)
	}
}

func TestHistogramExposition(t *testing.T) {
	var sb strings.Builder
	populatedRegistry().WritePrometheus(&sb)
	out := sb.String()
	// Cumulative buckets: 1 obs <= 0.01, 3 <= 0.1, 4 <= 1, 5 total; the +Inf
	// bucket must equal the count.
	for _, line := range []string{
		`test_latency_seconds_bucket{le="0.01"} 1`,
		`test_latency_seconds_bucket{le="0.1"} 3`,
		`test_latency_seconds_bucket{le="1"} 4`,
		`test_latency_seconds_bucket{le="+Inf"} 5`,
		`test_latency_seconds_sum 5.605`,
		`test_latency_seconds_count 5`,
	} {
		if !strings.Contains(out, line+"\n") {
			t.Errorf("exposition missing %q:\n%s", line, out)
		}
	}
}

func TestGetOrCreateSharesState(t *testing.T) {
	r := NewRegistry()
	r.Counter("shared_total", "Shared.").Add(3)
	r.Counter("shared_total", "Shared.").Add(4)
	if got := r.Counter("shared_total", "Shared.").Value(); got != 7 {
		t.Errorf("re-registered counter = %g, want 7 (get-or-create must share state)", got)
	}
	r.Histogram("shared_hist", "Shared.", 1, 2).Observe(1.5)
	h := r.Histogram("shared_hist", "Shared.", 1, 2)
	if got := h.Snapshot().N(); got != 1 {
		t.Errorf("re-registered histogram N = %d, want 1", got)
	}
}

func TestRegistrationPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	r := NewRegistry()
	r.Counter("taken_total", "Original.")
	r.Histogram("taken_hist", "Original.", 1, 2)

	mustPanic("bad name", func() { r.Counter("Bad-Name", "h") })
	mustPanic("empty name", func() { r.Counter("", "h") })
	mustPanic("empty help", func() { r.Counter("ok_name", "  ") })
	mustPanic("bad label", func() { r.CounterVec("ok_vec", "h", "Bad-Label") })
	mustPanic("reserved le", func() { r.CounterVec("ok_le_total", "h", "le") })
	mustPanic("dup label", func() { r.CounterVec("ok_vec2", "h", "a", "a") })
	mustPanic("kind conflict", func() { r.Gauge("taken_total", "Original.") })
	mustPanic("help conflict", func() { r.Counter("taken_total", "Changed.") })
	mustPanic("label conflict", func() { r.CounterVec("taken_total", "Original.", "k") })
	mustPanic("bounds conflict", func() { r.Histogram("taken_hist", "Original.", 1, 3) })
	mustPanic("negative counter", func() { r.Counter("taken_total", "Original.").Add(-1) })
	mustPanic("label arity", func() { r.CounterVec("ok_vec3", "h", "a", "b").With("only-one") })
}

func TestNilInstrumentsNoOp(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(2)
	if c.Value() != 0 {
		t.Error("nil counter value != 0")
	}
	var g *Gauge
	g.Set(1)
	if g.Value() != 0 {
		t.Error("nil gauge value != 0")
	}
	var h *Histogram
	h.Observe(1)
	if h.Snapshot() != nil {
		t.Error("nil histogram snapshot != nil")
	}
	var cv *CounterVec
	cv.With("x").Inc()
	cv.Func(func() float64 { return 1 }, "x")
	var gv *GaugeVec
	gv.Func(func() float64 { return 1 }, "x")
}

// TestConcurrentInstruments hammers every instrument kind from 16 goroutines
// while a scraper renders the registry — the satellite -race regression test
// for shared histogram use.
func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("conc_total", "h")
	cv := r.CounterVec("conc_vec_total", "h", "k")
	g := r.Gauge("conc_gauge", "h")
	h := r.Histogram("conc_hist", "h", 1, 10, 100)

	const goroutines = 16
	const iters = 1000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lbl := fmt.Sprintf("g%d", i%4)
			for j := 0; j < iters; j++ {
				c.Inc()
				cv.With(lbl).Add(2)
				g.Set(1)
				h.Observe(float64(j % 200))
			}
		}(i)
	}
	// Scrape concurrently with the writers.
	var scrapeWG sync.WaitGroup
	scrapeWG.Add(1)
	go func() {
		defer scrapeWG.Done()
		for i := 0; i < 50; i++ {
			var sb strings.Builder
			if err := r.WritePrometheus(&sb); err != nil {
				t.Errorf("concurrent WritePrometheus: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	scrapeWG.Wait()

	if got := c.Value(); got != goroutines*iters {
		t.Errorf("counter = %g, want %d", got, goroutines*iters)
	}
	if got := g.Value(); got != 1 {
		t.Errorf("gauge = %g, want 1", got)
	}
	if got := h.Snapshot().N(); got != goroutines*iters {
		t.Errorf("histogram N = %d, want %d", got, goroutines*iters)
	}
	var vecTotal float64
	for _, lbl := range []string{"g0", "g1", "g2", "g3"} {
		vecTotal += cv.With(lbl).Value()
	}
	if vecTotal != 2*goroutines*iters {
		t.Errorf("counter vec total = %g, want %d", vecTotal, 2*goroutines*iters)
	}
}

func TestCallbackSeries(t *testing.T) {
	r := NewRegistry()
	v := 1.0
	r.GaugeFunc("cb_gauge", "h", func() float64 { return v })
	var sb strings.Builder
	r.WriteSnapshot(&sb)
	if !strings.Contains(sb.String(), "cb_gauge 1\n") {
		t.Errorf("callback not read at exposition: %s", sb.String())
	}
	v = 2
	sb.Reset()
	r.WriteSnapshot(&sb)
	if !strings.Contains(sb.String(), "cb_gauge 2\n") {
		t.Errorf("callback not re-read at exposition: %s", sb.String())
	}
	// Re-registration replaces the callback: latest owner wins.
	r.GaugeFunc("cb_gauge", "h", func() float64 { return 7 })
	sb.Reset()
	r.WriteSnapshot(&sb)
	if !strings.Contains(sb.String(), "cb_gauge 7\n") {
		t.Errorf("callback not replaced: %s", sb.String())
	}
}

func TestNames(t *testing.T) {
	r := NewRegistry()
	r.Gauge("zz_gauge", "h")
	r.Counter("aa_total", "h")
	got := r.Names()
	if len(got) != 2 || got[0] != "aa_total" || got[1] != "zz_gauge" {
		t.Errorf("Names() = %v, want sorted [aa_total zz_gauge]", got)
	}
}

func TestLint(t *testing.T) {
	if err := populatedRegistry().Lint(); err != nil {
		t.Errorf("Lint of a well-formed registry: %v", err)
	}
	// Corrupt a family through unexported state to prove Lint catches what
	// registration can no longer intercept.
	r := NewRegistry()
	r.Counter("fine_total", "h")
	r.mu.Lock()
	r.families["fine_total"].help = ""
	r.mu.Unlock()
	if err := r.Lint(); err == nil {
		t.Error("Lint missed empty help text")
	}
}

// Names returns the registered family names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
