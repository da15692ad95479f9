package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/device"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// TestChromeTraceGolden pins the exact trace-event JSON emitted for a fixed
// kernel-event list, so the format consumed by chrome://tracing / Perfetto
// cannot silently drift.
func TestChromeTraceGolden(t *testing.T) {
	events := []device.KernelEvent{
		{Start: 0, HostDur: 150 * time.Microsecond, SimDur: 2 * time.Millisecond, Flops: 1 << 20, Bytes: 4096},
		{Start: 200 * time.Microsecond, HostDur: 50 * time.Microsecond, SimDur: 500 * time.Microsecond, Flops: 0, Bytes: 65536},
		{Start: 300 * time.Microsecond, HostDur: 75 * time.Microsecond, SimDur: 1250 * time.Microsecond, Flops: 123456, Bytes: 0},
	}
	var buf bytes.Buffer
	if err := device.WriteChromeTraceSpans(&buf, events, nil); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "trace.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run `go test -update` to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("trace format drifted from golden; run `go test -update ./cmd/gnntrace` if intentional\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

// TestRunTraceSmoke runs one tiny traced iteration end to end and checks the
// structural invariants of the emitted JSON: one host event (tid 0) and one
// modeled-device event (tid 1) per kernel with the modeled track laid out end
// to end, followed by the training spans on tids 2+ (iteration plus its
// data-load/forward/backward/update children).
func TestRunTraceSmoke(t *testing.T) {
	var buf bytes.Buffer
	kernels, spans, err := runTrace("GCN", "PyG", 1, 8, 0.05, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if kernels == 0 {
		t.Fatal("traced 0 kernels")
	}
	if spans != 5 {
		t.Fatalf("traced %d spans, want 5 (iteration + 4 phases)", spans)
	}

	var events []struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]string `json:"args"`
	}
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("output is not a JSON event array: %v", err)
	}
	if len(events) != 2*kernels+spans {
		t.Fatalf("got %d events, want %d (2 per kernel + %d spans)", len(events), 2*kernels+spans, spans)
	}
	var simCursor float64
	for i, e := range events[:2*kernels] {
		if e.Ph != "X" || e.Pid != 1 {
			t.Fatalf("event %d: ph=%q pid=%d, want ph=X pid=1", i, e.Ph, e.Pid)
		}
		wantTid := i % 2
		if e.Tid != wantTid {
			t.Fatalf("event %d: tid=%d, want %d (host/device pairs)", i, e.Tid, wantTid)
		}
		if e.Tid == 1 {
			if diff := e.Ts - simCursor; diff > 1e-6 || diff < -1e-6 {
				t.Fatalf("event %d: modeled track ts=%v, want end-to-end cursor %v", i, e.Ts, simCursor)
			}
			simCursor += e.Dur
		}
		if e.Args["flops"] == "" || e.Args["bytes"] == "" {
			t.Fatalf("event %d: missing flops/bytes args: %v", i, e.Args)
		}
	}
	names := map[string]bool{}
	for i, e := range events[2*kernels:] {
		if e.Ph != "X" || e.Pid != 1 || e.Tid < 2 {
			t.Fatalf("span event %d: ph=%q pid=%d tid=%d, want ph=X pid=1 tid>=2", i, e.Ph, e.Pid, e.Tid)
		}
		if e.Args["span"] == "" {
			t.Fatalf("span event %d: missing span id arg: %v", i, e.Args)
		}
		names[e.Name] = true
	}
	for _, want := range []string{"iteration", "data-load", "forward", "backward", "update"} {
		if !names[want] {
			t.Fatalf("span %q missing from trace (got %v)", want, names)
		}
	}

	if err := runTraceUnknownFramework(); err == nil {
		t.Fatal("unknown framework should error")
	}
}

func runTraceUnknownFramework() error {
	_, _, err := runTrace("GCN", "TF", 1, 8, 0.05, &bytes.Buffer{})
	return err
}

// TestChromeTraceSpansGolden pins the combined kernel+span trace format for a
// fixed event list, the span-track counterpart of TestChromeTraceGolden.
func TestChromeTraceSpansGolden(t *testing.T) {
	events := []device.KernelEvent{
		{Start: 0, HostDur: 150 * time.Microsecond, SimDur: 2 * time.Millisecond, Flops: 1 << 20, Bytes: 4096},
		{Start: 200 * time.Microsecond, HostDur: 50 * time.Microsecond, SimDur: 500 * time.Microsecond, Flops: 0, Bytes: 65536},
	}
	spans := []device.SpanEvent{
		{Name: "iteration", Start: 0, Dur: 300 * time.Microsecond, Tid: 2,
			Args: map[string]string{"span": "1", "iteration": "0"}},
		{Name: "forward", Start: 20 * time.Microsecond, Dur: 120 * time.Microsecond, Tid: 2,
			Args: map[string]string{"span": "2", "parent": "1"}},
	}
	var buf bytes.Buffer
	if err := device.WriteChromeTraceSpans(&buf, events, spans); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "trace_spans.golden")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run `go test -update` to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("combined trace format drifted from golden; run `go test -update ./cmd/gnntrace` if intentional\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}
