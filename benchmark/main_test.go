package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
)

func TestPercentile(t *testing.T) {
	var vals []float64
	for i := 1; i <= 100; i++ {
		vals = append(vals, float64(i))
	}
	for _, tc := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {99.9, 100}, {100, 100}, {1, 1}} {
		if got := percentile(vals, tc.p); got != tc.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 99); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// timerMarks are the marks a serving window's timer takes: one per sixth,
// with ok operations and CPU time growing at the given rates per second.
func timerMarks(window time.Duration, okPerSec []int64, cpuPerSec time.Duration) []mark {
	marks := []mark{{}}
	for k := 1; k <= subWindows; k++ {
		prev := marks[k-1]
		secs := int64(window / subWindows / time.Second)
		marks = append(marks, mark{
			at:  window * time.Duration(k) / subWindows,
			cpu: prev.cpu + cpuPerSec*time.Duration(secs),
			ok:  prev.ok + okPerSec[k-1]*secs,
		})
	}
	return marks
}

// steady returns n samples completing in every sixth of a 6 s window, all
// with the same latency except every fiftieth, which is ten times slower.
func steady(n int, lat time.Duration) []sample {
	var out []sample
	window := 6 * time.Second
	for k := 0; k < subWindows; k++ {
		for i := 0; i < n; i++ {
			s := sample{start: window*time.Duration(k)/subWindows + time.Duration(i)*time.Millisecond, lat: lat, ok: true}
			if i%50 == 49 {
				s.lat = 10 * lat
			}
			out = append(out, s)
		}
	}
	return out
}

func TestEstimateShedsDisturbedParts(t *testing.T) {
	window := 6 * time.Second
	even := []int64{500, 500, 500, 500, 500, 500}
	clean := estimate(parts(timerMarks(window, even, time.Second), steady(500, 2*time.Millisecond), window))
	if clean.p50 != 2 || clean.p99 != 20 || clean.throughput != 500 || clean.cpuPerOp != 2 {
		t.Fatalf("clean window: %+v, want p50 2 ms, p99 20 ms, 500 ops/s, 2 ms CPU per op", clean)
	}
	// A stall poisons two parts: 5% of their requests take 300 ms longer, and
	// they complete a fifth of the operations for the same CPU time.
	poisoned := steady(500, 2*time.Millisecond)
	for i := range poisoned {
		k := int(poisoned[i].start * subWindows / window)
		if (k == 1 || k == 4) && i%20 == 0 {
			poisoned[i].lat += 300 * time.Millisecond
		}
	}
	stalled := []int64{500, 100, 500, 500, 100, 500}
	got := estimate(parts(timerMarks(window, stalled, time.Second), poisoned, window))
	if got != clean {
		t.Errorf("two poisoned parts moved the estimates: %+v, want the clean %+v", got, clean)
	}
	if whole := percentile(latenciesMS(poisoned), 99); whole < 300 {
		t.Errorf("whole-run p99 = %v ms; the stall was meant to lift it past 300 ms", whole)
	}
	// A regression moves every part, and so moves the estimates.
	slow := estimate(parts(timerMarks(window, []int64{400, 400, 400, 400, 400, 400}, time.Second), steady(400, 3*time.Millisecond), window))
	if slow.p50 != 3 || slow.throughput != 400 || slow.cpuPerOp != 2.5 {
		t.Errorf("slower window: %+v, want p50 3 ms, 400 ops/s, 2.5 ms CPU per op", slow)
	}
}

func TestPartsEndOnMarks(t *testing.T) {
	// A training window marks after every round; rounds take 1.5 s of a 12 s
	// window, so a part is two rounds (3 s >= a sixth, 2 s).
	window := 12 * time.Second
	marks := []mark{{}}
	var samples []sample
	for r := 1; r <= 8; r++ {
		at := time.Duration(r) * 1500 * time.Millisecond
		marks = append(marks, mark{at: at, cpu: time.Duration(r) * 2 * time.Second, ok: int64(r)})
		samples = append(samples, sample{start: at - 1500*time.Millisecond, lat: 1499 * time.Millisecond, ok: true})
	}
	ps := parts(marks, samples, window)
	if len(ps) != 4 {
		t.Fatalf("%d parts, want 4 of two rounds each", len(ps))
	}
	for i, p := range ps {
		if p.to-p.from != 3*time.Second || p.ok != 2 || len(p.lat) != 2 || p.cpu != 4*time.Second {
			t.Errorf("part %d: %v long, %d ok, %d samples, %v CPU", i, p.to-p.from, p.ok, len(p.lat), p.cpu)
		}
	}
	if est := estimate(ps); math.Abs(est.throughput-2.0/3) > 1e-9 || est.cpuPerOp != 2000 {
		t.Errorf("estimate %+v, want 2/3 rounds/s at 2000 ms CPU per round", est)
	}
	// A failed operation enters its part's latencies at the timeout.
	failed := []sample{{start: time.Second, lat: failLatency}}
	if ps := parts(marks, failed, window); len(ps[0].lat) != 1 || ps[0].lat[0] != ms(failLatency) {
		t.Errorf("failed sample filed as %v, want [%v] in the first part", ps[0].lat, ms(failLatency))
	}
}

func TestPoissonScheduleIsAFunctionOfTheSeed(t *testing.T) {
	window := 10 * time.Second
	a, b := poissonSchedule(7, 300, window), poissonSchedule(7, 300, window)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave two schedules")
	}
	if reflect.DeepEqual(a, poissonSchedule(8, 300, window)) {
		t.Fatal("different seeds gave one schedule")
	}
	if n := float64(len(a)); math.Abs(n-3000) > 4*math.Sqrt(3000) {
		t.Errorf("%v arrivals in 10 s at 300/s", n)
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] || a[i] >= window {
			t.Fatalf("arrival %d at %v is out of order or outside the window", i, a[i])
		}
	}
	if !reflect.DeepEqual(walkOrder(7, 50), walkOrder(7, 50)) {
		t.Fatal("walk order is not a function of the seed")
	}
}

func TestSelfTime(t *testing.T) {
	p := interval{10, 110}
	for _, tc := range []struct {
		name     string
		children []interval
		want     time.Duration
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{20, 30}, {50, 70}}, 70},
		{"overlapping count once", []interval{{20, 60}, {40, 80}}, 40},
		{"clipped to the parent", []interval{{0, 20}, {100, 200}}, 80},
		{"nested", []interval{{20, 90}, {30, 40}}, 30},
		{"outside", []interval{{200, 300}}, 100},
	} {
		if got := selfTime(p, tc.children); got != tc.want {
			t.Errorf("%s: self time %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestAnalyseSplitsARequest(t *testing.T) {
	msec := time.Millisecond
	// Two HTTP requests served by one batch: request 0 spans [0,10], request 1
	// [1,11]; handlers sit 0.5 ms inside; the batch collates [4,5] and runs
	// forward [5,9].
	spans := []span{
		{Name: spanRequest, Start: 0, End: 10 * msec},
		{Name: spanRequest, Start: 1 * msec, End: 11 * msec},
		{Name: spanHandler, Start: msec / 2, End: 10*msec - msec/2, Reqs: []int{0}},
		{Name: spanHandler, Start: 1*msec + msec/2, End: 11*msec - msec/2, Reqs: []int{1}},
		{Name: spanCollate, Start: 4 * msec, End: 5 * msec, Reqs: []int{0, 1}},
		{Name: spanForward, Start: 5 * msec, End: 9 * msec, Reqs: []int{0, 1}},
		{Name: spanForward, Start: 20 * msec, End: -1, Reqs: []int{0}}, // still open: ignored
	}
	link(spans)
	if spans[2].Parent != 0 || spans[3].Parent != 1 || spans[4].Parent != 2 || spans[5].Parent != 2 {
		t.Fatalf("parents = %d %d %d %d, want 0 1 2 2", spans[2].Parent, spans[3].Parent, spans[4].Parent, spans[5].Parent)
	}
	st := analyse(spans)
	approx := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	approx("requests", float64(st.requests), 2)
	approx("batches", float64(st.batches), 1)
	approx("request ms", st.requestMS, 10)
	approx("round trip ms", st.roundtripMS, 1)
	approx("handler ms", st.handlerMS, 9)
	approx("queue wait ms", st.queueWaitMS, 3)     // (3.5 + 2.5) / 2
	approx("respond ms", st.respondMS, 1)          // (0.5 + 1.5) / 2
	approx("handler self ms", st.handlerSelfMS, 4) // 9 - 5 covered
	approx("forward per request ms", st.forwardPerRequestMS, 4)
	approx("self-time sum ms", st.selfSumMS, 10) // 1 + 4 + 5
	approx("collate us per graph", st.collateUSPerGraph, 500)
	approx("forward ms", st.forwardMS, 4)
	if st.busy != 5*msec {
		t.Errorf("busy = %v, want 5ms", st.busy)
	}

	// A fleet batch: run_batch [2,9] holds collate [4,5] and forward [5,8];
	// the wire is what they leave uncovered.
	fleet := []span{
		{Name: spanRequest, Start: 0, End: 10 * msec},
		{Name: spanRunBatch, Start: 2 * msec, End: 9 * msec, Reqs: []int{0}},
		{Name: spanCollate, Start: 4 * msec, End: 5 * msec, Reqs: []int{0}},
		{Name: spanForward, Start: 5 * msec, End: 8 * msec, Reqs: []int{0}},
	}
	link(fleet)
	st = analyse(fleet)
	approx("wire ms", st.wireMS, 3)
	approx("fleet queue wait ms", st.queueWaitMS, 2)
	approx("fleet self-time sum ms", st.selfSumMS, 10)
}

func TestFailedRequestEntersAtTheTimeout(t *testing.T) {
	s := &serving{want: []serve.Prediction{{Class: 1, Logits: []float64{0, 1}}}}
	start := time.Now()
	s.call = func(context.Context, int, int) (serve.Prediction, error) {
		return serve.Prediction{}, errors.New("refused")
	}
	m := newMeter()
	if smp := s.one(m, 0, start); smp.ok || smp.lat != failLatency {
		t.Errorf("refused request: ok=%v lat=%v, want a failure charged %v", smp.ok, smp.lat, failLatency)
	}
	s.call = func(context.Context, int, int) (serve.Prediction, error) {
		return serve.Prediction{Class: 1, Logits: []float64{0, 1 + 1e-6}}, nil
	}
	if smp := s.one(m, 0, start); smp.ok || smp.lat != failLatency {
		t.Errorf("wrong logits: ok=%v lat=%v, want a failure charged %v", smp.ok, smp.lat, failLatency)
	}
	s.call = func(context.Context, int, int) (serve.Prediction, error) {
		return serve.Prediction{Class: 1, Logits: []float64{0, 1 + 1e-12}}, nil
	}
	if smp := s.one(m, 0, start); !smp.ok || smp.lat >= failLatency || m.ok.Load() != 1 {
		t.Errorf("right answer: ok=%v lat=%v, %d counted", smp.ok, smp.lat, m.ok.Load())
	}
	lat := latenciesMS([]sample{{lat: time.Millisecond, ok: true}, {lat: failLatency}})
	if got := percentile(lat, 100); got != ms(failLatency) {
		t.Errorf("a failure reads %v ms in the latency sample, want %v", got, ms(failLatency))
	}
}

// sets builds a results file holding one set per value of the metric on the
// workload.
func sets(workload, metricName string, disturbed bool, vals ...float64) resultsFile {
	var f resultsFile
	for _, v := range vals {
		wr := workloadResult{
			EndToEnd: result{Correct: true, Metrics: map[string]metric{metricName: {Value: v}}},
			PerLayer: result{Correct: true, Metrics: map[string]metric{"loadgen.disturbed": {}}},
		}
		if disturbed {
			wr.PerLayer.Metrics["loadgen.disturbed"] = metric{Value: 1}
		}
		f.Sets = append(f.Sets, resultSet{Workloads: map[string]workloadResult{workload: wr}})
	}
	return f
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{Name: "latency_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "throughput_rps", Better: "higher", Bound: 0.10}
	for _, tc := range []struct {
		name      string
		def       metricDef
		a, b      []float64
		disturbed bool
		want      string
	}{
		{"within the bound", lower, []float64{10}, []float64{10.9}, false, verdictOK},
		{"past the bound", lower, []float64{10}, []float64{11.1}, false, verdictWorse},
		{"better", lower, []float64{10}, []float64{5}, false, verdictOK},
		{"higher is better: drop past the bound", higher, []float64{100}, []float64{89}, false, verdictWorse},
		{"higher is better: rise", higher, []float64{100}, []float64{150}, false, verdictOK},
		{"disturbed run", lower, []float64{10}, []float64{20}, true, verdictUnresolved},
		{"spread wider than the bound", lower, []float64{8, 10, 12, 14}, []float64{9, 11, 13, 15}, false, verdictUnresolved},
		{"wide spread but cleanly better", lower, []float64{8, 10, 12, 14}, []float64{4, 5, 6, 7}, false, verdictOK},
		{"several tight sets, worse", lower, []float64{10, 10.1, 10.2, 10.3}, []float64{12, 12.1, 12.2, 12.3}, false, verdictWorse},
	} {
		if got, _ := judge(tc.def, tc.a, tc.b, tc.disturbed); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}

	var out bytes.Buffer
	worse := compareResults(&out, sets("http_small", "latency_p50_ms", false, 10), sets("http_small", "latency_p50_ms", false, 13))
	if !worse || !strings.Contains(out.String(), verdictWorse) {
		t.Errorf("a 30%% slower p50 was not reported as worse:\n%s", out.String())
	}
	out.Reset()
	if compareResults(&out, sets("http_small", "latency_p50_ms", true, 10), sets("http_small", "latency_p50_ms", false, 13)) {
		t.Errorf("a disturbed base must be unresolved, not worse:\n%s", out.String())
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := quartileSpread(vals), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
}

// TestManifestMatchesTables holds BENCHMARK.json to the metric tables the
// harness prints from.
func TestManifestMatchesTables(t *testing.T) {
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := writeManifest(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, want.Bytes()) {
		t.Error("BENCHMARK.json differs from the harness's tables; regenerate it with: go run ./benchmark -manifest > BENCHMARK.json")
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s is defined twice", d.Name)
		}
		seen[d.Name] = true
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed the manifest's limits", len(endToEnd), len(perLayer))
	}
}

// checkMetrics asserts that res holds exactly the metrics of defs, finite.
func checkMetrics(t *testing.T, res result, defs []metricDef, neverZero bool) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics reported, %d defined", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("metric %s is missing", d.Name)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s = %v", d.Name, m.Value)
		case m.Unit != d.Unit:
			t.Errorf("metric %s has unit %q, want %q", d.Name, m.Unit, d.Unit)
		case neverZero && m.Value <= 0:
			t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, m.Value)
		}
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
}

// TestSmoke runs every workload through a short untraced window, and the
// cheapest one through a traced run as well.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloadDefs {
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			res, err := runWorkload(runConfig{workload: w.Name, seed: 3, window: 300 * time.Millisecond, setups: 1, log: io.Discard})
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, endToEnd, true)
		})
	}
	t.Run("http_small traced", func(t *testing.T) {
		t.Parallel()
		traceOut := t.TempDir() + "/trace.json"
		res, err := runWorkload(runConfig{workload: "http_small", seed: 3, window: 600 * time.Millisecond, traced: true, traceOut: traceOut, log: io.Discard})
		if err != nil {
			t.Fatal(err)
		}
		checkMetrics(t, res, perLayer, false)
		for _, name := range []string{"serve.handler_ms", "serve.queue_wait_ms", "models.forward_ms", "fw.collate_ms", "http.roundtrip_overhead_ms", "trace.overhead_ratio"} {
			if res.Metrics[name].Value <= 0 {
				t.Errorf("traced metric %s = %v, want > 0", name, res.Metrics[name].Value)
			}
		}
		if r := res.Metrics["trace.selftime_sum_ratio"].Value; math.Abs(r-1) > 0.1 {
			t.Errorf("self times sum to %v of the request latency, want within 10%%", r)
		}
		data, err := os.ReadFile(traceOut)
		if err != nil {
			t.Fatal(err)
		}
		var events []map[string]any
		if err := json.Unmarshal(data, &events); err != nil || len(events) == 0 {
			t.Errorf("trace file holds %d events (%v)", len(events), err)
		}
	})
}
