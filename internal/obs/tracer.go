package obs

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/device"
)

// The tracer is the high-level half of the timeline the paper captures with
// nvprof: where the device records individual kernels, the tracer records
// named, nested spans (epoch → batch → data-load/forward/backward/update on
// the training path; request → collate/forward on the serving path). Both
// export into one Chrome-trace JSON so Perfetto shows framework-level phases
// directly above the kernel stream they produce.

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string
	Value string
}

// String builds a string attribute.
func String(key, value string) Attr { return Attr{Key: key, Value: value} }

// Int builds an integer attribute.
func Int(key string, v int) Attr { return Attr{Key: key, Value: strconv.Itoa(v)} }

// SpanRecord is one completed span as stored in the tracer's ring buffer.
type SpanRecord struct {
	// ID is the span's unique id (1-based, in start order). Spans imported
	// from a remote process carry synthetic ids with the high bit set, so
	// they can never collide with local ones.
	ID uint64
	// ParentID is the enclosing span's id; 0 for root spans.
	ParentID uint64
	Name     string
	// Lane is the span's display track: concurrent root spans get distinct
	// lanes so overlapping work (loader workers, serving replicas) renders on
	// separate timeline rows.
	Lane int
	// Pid is the Chrome-trace process lane the span renders on; 0 means the
	// local process (rendered as pid 1, matching the kernel tracks). Spans
	// stitched in from a worker process carry that worker's pid lane.
	Pid int
	// TraceID identifies the distributed trace the span belongs to; 0 for
	// purely local spans.
	TraceID uint64
	// Start is the offset from the tracer's epoch.
	Start time.Duration
	Dur   time.Duration
	Attrs []Attr
}

// TraceContext identifies a distributed trace across process boundaries: the
// trace id names the whole request tree, and SpanID names the span a remote
// process should nest its work under. It travels in rpc Job frames.
type TraceContext struct {
	TraceID uint64
	SpanID  uint64
}

// splitmix64 is the SplitMix64 finalizer — a cheap, high-quality bijective
// mixer. Used to derive trace ids from job ids and stable imported-span ids
// from (trace id, wire id) pairs, so the whole distributed trace is a pure
// function of the job sequence: no ambient randomness, per the determinism
// law gnnvet enforces.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// TraceIDForJob derives the deterministic trace id for a dispatched job.
// The result is never 0 (0 marks a local, untraced span).
func TraceIDForJob(job uint64) uint64 {
	id := splitmix64(job)
	if id == 0 {
		id = 1
	}
	return id
}

// remoteSpanID derives the stable local id for a span imported off the wire:
// a mix of the trace id and the record's wire-local id, with the high bit
// forced so imported ids can never collide with the local counter. Import
// order therefore does not matter — the same remote span always lands under
// the same id.
func remoteSpanID(traceID, wireID uint64) uint64 {
	return splitmix64(traceID^(wireID*0x9e3779b97f4a7c15)) | 1<<63
}

// Tracer records nested spans into a bounded ring buffer. All methods are
// safe for concurrent use, and a nil *Tracer is a valid disabled tracer:
// Start returns a nil span whose methods all no-op, so instrumented code
// paths trace unconditionally.
type Tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	limit  int
	buf    []SpanRecord
	w      int // ring write cursor, meaningful once len(buf) == limit
	nextID uint64
	lanes  []bool // lane i in use by a live root span
}

// DefaultSpanLimit bounds the ring buffer when NewTracer is given no limit.
const DefaultSpanLimit = 4096

// NewTracer returns a tracer keeping at most limit completed spans (the most
// recent ones win; limit <= 0 means DefaultSpanLimit). The tracer's epoch —
// the zero point of every span's Start offset — is the moment of creation.
func NewTracer(limit int) *Tracer {
	if limit <= 0 {
		limit = DefaultSpanLimit
	}
	return &Tracer{epoch: time.Now(), limit: limit}
}

// Span is a live (un-ended) span handle. It is not safe for concurrent use;
// hand children to other goroutines, not the span itself.
type Span struct {
	t       *Tracer
	id      uint64
	parent  uint64
	name    string
	lane    int
	traceID uint64
	col     *spanCollector // non-nil on remote-rooted trees: End also collects
	begin   time.Time
	attrs   []Attr
	root    bool
	ended   bool
}

// spanCollector accumulates the completed records of one remote-rooted span
// tree, in End order, for shipping back over the wire.
type spanCollector struct {
	mu   sync.Mutex
	recs []SpanRecord
}

// Start begins a root span, assigning it the lowest free display lane.
func (t *Tracer) Start(name string, attrs ...Attr) *Span {
	return t.start(0, nil, name, attrs)
}

// StartRemote begins a root span participating in the distributed trace tc:
// the span and all its descendants are tagged with tc.TraceID, and the whole
// tree is additionally collected so that, once the root has Ended, Collected
// returns wire-ready records for shipping to the process that owns the
// parent span. A zero tc.TraceID degrades to a plain local root.
func (t *Tracer) StartRemote(tc TraceContext, name string, attrs ...Attr) *Span {
	var col *spanCollector
	if tc.TraceID != 0 {
		col = &spanCollector{}
	}
	return t.start(tc.TraceID, col, name, attrs)
}

func (t *Tracer) start(traceID uint64, col *spanCollector, name string, attrs []Attr) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	lane := -1
	for i, used := range t.lanes {
		if !used {
			lane = i
			break
		}
	}
	if lane < 0 {
		lane = len(t.lanes)
		t.lanes = append(t.lanes, false)
	}
	t.lanes[lane] = true
	t.mu.Unlock()
	return &Span{t: t, id: id, name: name, lane: lane, traceID: traceID, col: col,
		begin: time.Now(), attrs: attrs, root: true}
}

// Child begins a nested span on the same lane as its parent, inheriting its
// trace id (and, on remote-rooted trees, its collector).
func (s *Span) Child(name string, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	t := s.t
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	return &Span{t: t, id: id, parent: s.id, name: name, lane: s.lane,
		traceID: s.traceID, col: s.col, begin: time.Now(), attrs: attrs}
}

type spanKey struct{}

// ContextWithSpan returns a context carrying s as the parent for spans opened
// further down the call chain — how a callee behind an interface that takes
// only a context (serve.Runner) nests its spans under the caller's. A nil
// span returns ctx unchanged.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, s)
}

// SpanFromContext returns the span ContextWithSpan stored in ctx, or nil —
// itself a valid no-op span — when there is none.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// Context returns the span's place in its distributed trace — what a
// dispatcher puts on the wire so the remote side can nest under this span.
// The zero TraceContext marks a nil or untraced span.
func (s *Span) Context() TraceContext {
	if s == nil {
		return TraceContext{}
	}
	return TraceContext{TraceID: s.traceID, SpanID: s.id}
}

// Annotate appends attributes to the span before it ends.
func (s *Span) Annotate(attrs ...Attr) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, attrs...)
}

// End completes the span, committing it to the ring buffer. Ending twice is
// a no-op; root spans release their lane.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	dur := time.Since(s.begin)
	t := s.t
	rec := SpanRecord{
		ID: s.id, ParentID: s.parent, Name: s.name, Lane: s.lane,
		TraceID: s.traceID, Start: s.begin.Sub(t.epoch), Dur: dur, Attrs: s.attrs,
	}
	t.mu.Lock()
	t.record(rec)
	if s.root {
		t.lanes[s.lane] = false
	}
	t.mu.Unlock()
	if s.col != nil {
		s.col.mu.Lock()
		s.col.recs = append(s.col.recs, rec)
		s.col.mu.Unlock()
	}
}

// Collected returns the wire-ready records of a remote-rooted span tree:
// ids renumbered 1..n in End order, parents remapped (the root's parent is
// 0 — the importing side re-parents it onto its own span), and starts
// rebased so the root starts at 0. Valid only on an Ended root created by
// StartRemote; nil otherwise. Children Ended after the root are not
// included — end the tree bottom-up before collecting.
func (s *Span) Collected() []SpanRecord {
	if s == nil || !s.root || s.col == nil || !s.ended {
		return nil
	}
	s.col.mu.Lock()
	recs := append([]SpanRecord(nil), s.col.recs...)
	s.col.mu.Unlock()
	wire := make(map[uint64]uint64, len(recs))
	for i, r := range recs {
		wire[r.ID] = uint64(i + 1)
	}
	var base time.Duration
	for _, r := range recs {
		if r.ID == s.id {
			base = r.Start
			break
		}
	}
	out := make([]SpanRecord, len(recs))
	for i, r := range recs {
		start := r.Start - base
		if start < 0 {
			start = 0
		}
		out[i] = SpanRecord{
			ID: wire[r.ID], ParentID: wire[r.ParentID], Name: r.Name,
			TraceID: r.TraceID, Start: start, Dur: r.Dur,
			Attrs: append([]Attr(nil), r.Attrs...),
		}
	}
	return out
}

// ImportRemote stitches a remote process's collected span records into this
// tracer's timeline as descendants of s: records with wire parent 0 (the
// remote root) re-parent onto s, starts rebase onto s's begin (the dispatch
// moment — wall clocks of distinct processes are never compared), and every
// record renders on the given Chrome-trace pid lane. Imported ids are a pure
// function of (trace id, wire id), so stitching the same records twice or in
// any order yields identical spans. Safe to call from the goroutine that owns
// the wire frames even after s has Ended.
func (s *Span) ImportRemote(pid int, recs []SpanRecord) {
	if s == nil || len(recs) == 0 {
		return
	}
	t := s.t
	t.mu.Lock()
	base := s.begin.Sub(t.epoch)
	for _, r := range recs {
		parent := s.id
		if r.ParentID != 0 {
			parent = remoteSpanID(r.TraceID, r.ParentID)
		}
		t.record(SpanRecord{
			ID: remoteSpanID(r.TraceID, r.ID), ParentID: parent, Name: r.Name,
			Lane: s.lane, Pid: pid, TraceID: r.TraceID,
			Start: base + r.Start, Dur: r.Dur,
			Attrs: append([]Attr(nil), r.Attrs...),
		})
	}
	t.mu.Unlock()
}

// record appends under t.mu, overwriting the oldest span once full.
func (t *Tracer) record(rec SpanRecord) {
	if len(t.buf) < t.limit {
		t.buf = append(t.buf, rec)
		return
	}
	t.buf[t.w] = rec
	t.w = (t.w + 1) % t.limit
}

// Spans returns the buffered spans oldest-first.
func (t *Tracer) Spans() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanRecord, 0, len(t.buf))
	out = append(out, t.buf[t.w:]...)
	out = append(out, t.buf[:t.w]...)
	return out
}

// Reset discards buffered spans and restarts the epoch at time.Now(); live
// spans keep their old epoch-relative offsets, so Reset between traces, not
// mid-span.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.buf = t.buf[:0]
	t.w = 0
	t.epoch = time.Now()
	t.mu.Unlock()
}

// spanTidBase is the first Chrome-trace tid used for span lanes; tids 0 and
// 1 belong to the device's host and modeled kernel tracks.
const spanTidBase = 2

// SpanEvents converts the buffered spans into the device package's generic
// trace events: each span becomes a complete ("X") event on tid 2+lane, with
// its id, parent id, trace id (when part of a distributed trace) and
// attributes as args.
func (t *Tracer) SpanEvents() []device.SpanEvent {
	return spanEvents(t.Spans())
}

func spanEvents(spans []SpanRecord) []device.SpanEvent {
	evs := make([]device.SpanEvent, len(spans))
	for i, s := range spans {
		args := map[string]string{"span": strconv.FormatUint(s.ID, 10)}
		if s.ParentID != 0 {
			args["parent"] = strconv.FormatUint(s.ParentID, 10)
		}
		if s.TraceID != 0 {
			args["trace"] = fmt.Sprintf("%016x", s.TraceID)
		}
		for _, a := range s.Attrs {
			args[a.Key] = a.Value
		}
		evs[i] = device.SpanEvent{
			Name: s.Name, Start: s.Start, Dur: s.Dur,
			Pid: s.Pid, Tid: spanTidBase + s.Lane, Args: args,
		}
	}
	return evs
}

// MergedSpanEvents returns the buffered spans — local and imported alike —
// in a canonical order (pid, lane, start, duration, name, id) instead of
// ring-arrival order. Arrival order of imported frames depends on network
// timing; the canonical order makes a merged multi-process trace a pure
// function of the spans themselves, so two runs recording identical spans
// serialize byte-identically.
func (t *Tracer) MergedSpanEvents() []device.SpanEvent {
	spans := t.Spans()
	sort.SliceStable(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.Pid != b.Pid {
			return a.Pid < b.Pid
		}
		if a.Lane != b.Lane {
			return a.Lane < b.Lane
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Dur != b.Dur {
			return a.Dur > b.Dur // longer (enclosing) spans first
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.ID < b.ID
	})
	return spanEvents(spans)
}

// WriteChromeTrace writes one Chrome-trace JSON array holding both the given
// kernel events (tids 0 and 1, exactly as device.WriteChromeTraceSpans
// emits them) and this tracer's spans (tids 2+). Open the result in
// chrome://tracing or Perfetto to see framework phases above the kernels
// they dispatched.
func (t *Tracer) WriteChromeTrace(w io.Writer, kernels []device.KernelEvent) error {
	var spans []device.SpanEvent
	if t != nil {
		spans = t.SpanEvents()
	}
	return device.WriteChromeTraceSpans(w, kernels, spans)
}

// WriteMergedChromeTrace is WriteChromeTrace for multi-process traces: spans
// serialize in MergedSpanEvents' canonical order, so the bytes are
// deterministic regardless of the arrival order of imported worker frames.
// Each worker's spans land on their own Perfetto pid lane; the coordinator
// (and the kernel tracks) stay on pid 1.
func (t *Tracer) WriteMergedChromeTrace(w io.Writer, kernels []device.KernelEvent) error {
	var spans []device.SpanEvent
	if t != nil {
		spans = t.MergedSpanEvents()
	}
	return device.WriteChromeTraceSpans(w, kernels, spans)
}
