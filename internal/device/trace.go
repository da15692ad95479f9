package device

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// Kernel tracing is the analogue of the nvprof timeline the paper collects:
// with tracing enabled, every kernel appends an event (start offset,
// duration on both clocks, work counters), and the log exports to Chrome's
// trace-event JSON for chrome://tracing or Perfetto.

// KernelEvent is one traced kernel execution.
type KernelEvent struct {
	// Start is the offset from trace start (host clock).
	Start time.Duration
	// HostDur is the measured host execution time.
	HostDur time.Duration
	// SimDur is the cost-model duration.
	SimDur time.Duration
	Flops  int64
	Bytes  int64
}

// EnableTrace starts recording kernel events (keeping at most cap events;
// 0 means unlimited). Any previous trace is discarded.
func (d *Device) EnableTrace(cap int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.traceCap = cap
	d.traceStart = time.Now()
	d.trace = d.trace[:0]
	d.tracing = true
}

// DisableTrace stops recording; the collected events remain readable.
func (d *Device) DisableTrace() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.tracing = false
}

// Trace returns a copy of the recorded events.
func (d *Device) Trace() []KernelEvent {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]KernelEvent(nil), d.trace...)
}

func (d *Device) record(start time.Time, hostDur, simDur time.Duration, flops, bytes int64) {
	if !d.tracing {
		return
	}
	if d.traceCap > 0 && len(d.trace) >= d.traceCap {
		return
	}
	d.trace = append(d.trace, KernelEvent{
		Start:   start.Sub(d.traceStart),
		HostDur: hostDur,
		SimDur:  simDur,
		Flops:   flops,
		Bytes:   bytes,
	})
}

// chromeEvent is one entry of Chrome's trace-event format ("X" = complete
// event; ts/dur in microseconds).
type chromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// SpanEvent is one higher-level timeline slice merged into the kernel
// trace: the obs package's span tracer exports its epoch/batch/phase spans
// through this type so framework-level phases and the kernel stream land in
// one Chrome-trace JSON (tids 0 and 1 are the kernel tracks; spans supply
// their own tid, conventionally 2 and up).
type SpanEvent struct {
	Name string
	// Start is the offset from trace start.
	Start time.Duration
	Dur   time.Duration
	// Pid is the Chrome-trace process lane; 0 renders as pid 1, the local
	// process the kernel tracks live on. Spans stitched in from worker
	// processes carry their own pid so Perfetto groups them per worker.
	Pid  int
	Tid  int
	Args map[string]string
}

// WriteChromeTraceSpans writes kernel events and span events as one Chrome
// trace-event JSON array: each kernel appears twice, on the host timeline
// (tid 0) and laid end to end on the modeled device timeline (tid 1), and
// span events follow on their own tids. cmd/gnntrace pins the kernel-only
// output (nil spans) with a golden file.
func WriteChromeTraceSpans(w io.Writer, events []KernelEvent, spans []SpanEvent) error {
	out := make([]chromeEvent, 0, 2*len(events)+len(spans))
	var simCursor time.Duration
	for i, e := range events {
		args := map[string]string{
			"flops": fmt.Sprintf("%d", e.Flops),
			"bytes": fmt.Sprintf("%d", e.Bytes),
		}
		out = append(out, chromeEvent{
			Name: fmt.Sprintf("kernel-%d", i), Ph: "X",
			Ts: e.Start.Seconds() * 1e6, Dur: e.HostDur.Seconds() * 1e6,
			Pid: 1, Tid: 0, Args: args,
		})
		out = append(out, chromeEvent{
			Name: fmt.Sprintf("kernel-%d", i), Ph: "X",
			Ts: simCursor.Seconds() * 1e6, Dur: e.SimDur.Seconds() * 1e6,
			Pid: 1, Tid: 1, Args: args,
		})
		simCursor += e.SimDur
	}
	for _, s := range spans {
		pid := s.Pid
		if pid == 0 {
			pid = 1
		}
		out = append(out, chromeEvent{
			Name: s.Name, Ph: "X",
			Ts: s.Start.Seconds() * 1e6, Dur: s.Dur.Seconds() * 1e6,
			Pid: pid, Tid: s.Tid, Args: s.Args,
		})
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(out); err != nil {
		return fmt.Errorf("device: encode trace: %w", err)
	}
	return nil
}
