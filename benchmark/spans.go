package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ag"
	"repro/internal/device"
	"repro/internal/fw"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/profile"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// Span names, outermost first. A request's spans nest in this order; the
// spans of one forward batch are shared by every request the batch served.
const (
	spanRequest  = "request"
	spanHandler  = "serve.handler"
	spanRunBatch = "fleet.run_batch"
	spanCollate  = "fw.collate"
	spanForward  = "models.forward"
)

// spanDepth orders span names from the outside in; collate and forward are
// siblings.
var spanDepth = map[string]int{spanRequest: 0, spanHandler: 1, spanRunBatch: 2, spanCollate: 3, spanForward: 3}

// span is one recorded interval at a layer boundary.
type span struct {
	Name       string
	Start, End time.Duration // offsets from the recorder's epoch
	// Parent is the index of the enclosing span of the first request this
	// span served, -1 for a request span; filled in by link.
	Parent int
	// Reqs are the request spans (by index) this span did work for: one for
	// a handler span, the whole batch for a batch-level span.
	Reqs []int
}

func (s span) dur() time.Duration { return s.End - s.Start }

// requestHeader carries the request span's index to the handler wrapper in
// the traced window. The server ignores it.
const requestHeader = "X-Bench-Request"

// recorder keeps the traced window's spans in memory. The harness records
// from outside the program only: the load generator opens request spans and
// the wrappers below open the rest.
type recorder struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span

	// Batch-level wrappers see graphs, not requests. Every corpus is larger
	// than the number of requests in flight and is walked round-robin, so a
	// corpus index names at most one in-flight request: inflight[i] is that
	// request's span index plus one, 0 when none.
	inflight []atomic.Int64
	byPrint  map[uint64]int
	// current, when non-zero, is the one operation in flight plus one (the
	// training workload runs one call at a time and has no corpus walk).
	current atomic.Int64
	// batchReqs hands a collated batch's requests from the collate wrapper to
	// the forward wrapper.
	batchReqs sync.Map // *fw.Batch -> []int
}

// newRecorder indexes the corpus by content so that graphs rebuilt from the
// wire (HTTP JSON, RPC job frames) still map back to their request.
func newRecorder(corpus []*graph.Graph) (*recorder, error) {
	r := &recorder{
		epoch:    time.Now(),
		inflight: make([]atomic.Int64, len(corpus)),
		byPrint:  make(map[uint64]int, len(corpus)),
	}
	for i, g := range corpus {
		p := fingerprint(g)
		if j, dup := r.byPrint[p]; dup {
			return nil, fmt.Errorf("corpus graphs %d and %d share a fingerprint; spans could not be tied to requests", j, i)
		}
		r.byPrint[p] = i
	}
	return r, nil
}

// fingerprint hashes a bounded prefix of a graph's content: sizes, the first
// arcs and the first feature values. It is computed per graph per batch in
// the traced window, so it must stay cheap on DD-sized graphs.
func fingerprint(g *graph.Graph) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(v uint64) { h = (h ^ v) * prime }
	mix(uint64(g.NumNodes))
	mix(uint64(len(g.Src)))
	for i := 0; i < len(g.Src) && i < 32; i++ {
		mix(uint64(g.Src[i])<<32 | uint64(g.Dst[i]))
	}
	if g.X != nil {
		for i := 0; i < len(g.X.Data) && i < 256; i++ {
			mix(math.Float64bits(g.X.Data[i]))
		}
	}
	return h
}

func (r *recorder) begin(name string, reqs []int) int {
	now := time.Since(r.epoch)
	r.mu.Lock()
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Start: now, End: -1, Parent: -1, Reqs: reqs})
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id int) {
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// beginRequest opens a request span for corpus graph i at the given instant
// (the due time in an open loop) and marks it in flight.
func (r *recorder) beginRequest(i int, at time.Time) int {
	r.mu.Lock()
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: spanRequest, Start: at.Sub(r.epoch), End: -1, Parent: -1})
	r.mu.Unlock()
	r.inflight[i].Store(int64(id) + 1)
	return id
}

func (r *recorder) endRequest(i, id int) {
	r.inflight[i].Store(0)
	r.end(id)
}

// requestsFor names the in-flight requests a set of graphs belongs to.
func (r *recorder) requestsFor(graphs []*graph.Graph) []int {
	if cur := r.current.Load(); cur != 0 {
		return []int{int(cur - 1)}
	}
	reqs := make([]int, 0, len(graphs))
	for _, g := range graphs {
		if i, ok := r.byPrint[fingerprint(g)]; ok {
			if id := r.inflight[i].Load(); id != 0 {
				reqs = append(reqs, int(id-1))
			}
		}
	}
	return reqs
}

// finished returns the spans with Parent filled in. Spans that opened before
// since (the instance's warm-up) are marked unfinished, End < 0, which every
// reader skips; they stay in place so span indices keep their meaning.
func (r *recorder) finished(since time.Duration) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := append([]span(nil), r.spans...)
	for i := range out {
		if out[i].Start < since {
			out[i].End = -1
		}
	}
	link(out)
	return out
}

// link sets each span's Parent: the deepest shallower span that served the
// same first request and encloses the span's start. Spans still open when
// the window closed (End < 0) are never parents.
func link(spans []span) {
	byReq := map[int][]int{}
	for i, s := range spans {
		if s.Name == spanRequest {
			byReq[i] = append(byReq[i], i)
		}
		for _, q := range s.Reqs {
			byReq[q] = append(byReq[q], i)
		}
	}
	for i := range spans {
		s := &spans[i]
		s.Parent = -1
		if len(s.Reqs) == 0 {
			continue
		}
		best := -1
		for _, j := range byReq[s.Reqs[0]] {
			p := spans[j]
			if j == i || p.End < 0 || spanDepth[p.Name] >= spanDepth[s.Name] || p.Start > s.Start || p.End < s.Start {
				continue
			}
			if best < 0 || spanDepth[p.Name] > spanDepth[spans[best].Name] {
				best = j
			}
		}
		s.Parent = best
	}
}

// interval is a half-open stretch of the trace timeline.
type interval struct{ lo, hi time.Duration }

// covered is the length of the part of parent that the children cover.
func covered(parent interval, children []interval) time.Duration {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.lo < parent.lo {
			c.lo = parent.lo
		}
		if c.hi > parent.hi {
			c.hi = parent.hi
		}
		if c.hi > c.lo {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var total time.Duration
	edge := parent.lo
	for _, c := range clipped {
		if c.lo > edge {
			edge = c.lo
		}
		if c.hi > edge {
			total += c.hi - edge
			edge = c.hi
		}
	}
	return total
}

// selfTime is a span's duration minus the part its children cover.
func selfTime(parent interval, children []interval) time.Duration {
	return parent.hi - parent.lo - covered(parent, children)
}

// traceStats are the traced window's per-layer numbers. Per-request values
// are means over the requests that completed with a forward pass; per-batch
// values are means over batch-level spans.
type traceStats struct {
	requests int // completed requests with at least one batch-level span
	batches  int // forward spans

	requestMS   float64 // mean request span
	roundtripMS float64 // request span minus handler span (HTTP only)
	handlerMS   float64
	// handlerSelfMS is the handler span minus what its batch-level spans
	// cover: JSON decode, graph construction, queueing, linger, response.
	handlerSelfMS float64
	queueWaitMS   float64 // uncovered prefix: handler (or request) start to first batch-level span
	respondMS     float64 // uncovered suffix: last batch-level span end to handler (or request) end
	selfSumMS     float64 // mean over requests of the sum of their spans' self times
	// forwardPerRequestMS is the forward span time one request waits on (the
	// whole batch's forward, not its share of it).
	forwardPerRequestMS float64

	collateMS, forwardMS, runBatchMS, wireMS float64 // per batch
	collateUSPerGraph, forwardUSPerGraph     float64
	busy                                     time.Duration // total collate + forward span time
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// analyse folds finished, linked spans into traceStats.
func analyse(spans []span) traceStats {
	byReq := map[int][]int{}
	children := map[int][]interval{}
	for _, s := range spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	var st traceStats
	var collate, forward, runBatch, wire []float64
	var collateGraphs, forwardGraphs int
	var collateTotal, forwardTotal time.Duration
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		for _, q := range s.Reqs {
			byReq[q] = append(byReq[q], i)
		}
		switch s.Name {
		case spanCollate:
			collate = append(collate, ms(s.dur()))
			collateGraphs += len(s.Reqs)
			collateTotal += s.dur()
		case spanForward:
			forward = append(forward, ms(s.dur()))
			forwardGraphs += len(s.Reqs)
			forwardTotal += s.dur()
		case spanRunBatch:
			runBatch = append(runBatch, ms(s.dur()))
			// The worker's collate and forward run inside the coordinator's
			// run_batch span (same process, same clock); what they leave
			// uncovered is encode + socket + decode + row streaming.
			wire = append(wire, ms(selfTime(interval{s.Start, s.End}, children[i])))
		}
	}
	st.batches = len(forward)
	st.collateMS, st.forwardMS, st.runBatchMS, st.wireMS = mean(collate), mean(forward), mean(runBatch), mean(wire)
	if collateGraphs > 0 {
		st.collateUSPerGraph = us(collateTotal) / float64(collateGraphs)
	}
	if forwardGraphs > 0 {
		st.forwardUSPerGraph = us(forwardTotal) / float64(forwardGraphs)
	}
	st.busy = collateTotal + forwardTotal

	var total, roundtrip, handler, handlerSelf, queue, respond, selfSum, forwardPerReq []float64
	for q, s := range spans {
		if s.Name != spanRequest || s.End < 0 {
			continue
		}
		// levels[d] are this request's spans at nesting depth d.
		var levels [4][]interval
		var fwd time.Duration
		for _, i := range byReq[q] {
			c := spans[i]
			levels[spanDepth[c.Name]] = append(levels[spanDepth[c.Name]], interval{c.Start, c.End})
			if c.Name == spanForward {
				fwd += c.dur()
			}
		}
		if len(levels[3]) == 0 && len(levels[2]) == 0 {
			continue // failed before any batch ran; counted by the load generator
		}
		req := interval{s.Start, s.End}
		base := req
		if len(levels[1]) > 0 {
			base = levels[1][0]
			handler = append(handler, ms(base.hi-base.lo))
			roundtrip = append(roundtrip, ms(req.hi-req.lo-(base.hi-base.lo)))
		}
		inner := levels[2]
		if len(inner) == 0 {
			inner = levels[3]
		}
		if len(levels[1]) > 0 {
			handlerSelf = append(handlerSelf, ms(selfTime(base, inner)))
		}
		forwardPerReq = append(forwardPerReq, ms(fwd))
		first, last := inner[0].lo, inner[0].hi
		for _, c := range inner {
			if c.lo < first {
				first = c.lo
			}
			if c.hi > last {
				last = c.hi
			}
		}
		total = append(total, ms(req.hi-req.lo))
		queue = append(queue, ms(first-base.lo))
		respond = append(respond, ms(base.hi-last))

		// Self times down the request's own chain: each level's spans minus
		// what the next occupied level covers, and at the bottom the leaves'
		// own extent (a union: evaluation batches run side by side). The sum
		// equals the request span exactly when every level nests in the one
		// above; a leaf sticking out of its parent makes it larger.
		chain := [][]interval{{req}}
		for d := 1; d < len(levels); d++ {
			if len(levels[d]) > 0 {
				chain = append(chain, levels[d])
			}
		}
		sum := covered(interval{math.MinInt64, math.MaxInt64}, chain[len(chain)-1])
		for d := 0; d+1 < len(chain); d++ {
			for _, p := range chain[d] {
				sum += selfTime(p, chain[d+1])
			}
		}
		selfSum = append(selfSum, ms(sum))
	}
	st.requests = len(total)
	st.requestMS, st.roundtripMS, st.handlerMS = mean(total), mean(roundtrip), mean(handler)
	st.queueWaitMS, st.respondMS, st.selfSumMS = mean(queue), mean(respond), mean(selfSum)
	st.handlerSelfMS, st.forwardPerRequestMS = mean(handlerSelf), mean(forwardPerReq)
	return st
}

// writeChromeTrace writes the spans as Chrome-trace JSON through the repo's
// own writer, so the file loads beside gnntrace output. One lane per span
// name; args carry the parent and the request ids.
func writeChromeTrace(w io.Writer, spans []span) error {
	lanes := map[string]int{spanRequest: 2, spanHandler: 3, spanRunBatch: 4, spanCollate: 5, spanForward: 6}
	events := make([]device.SpanEvent, 0, len(spans))
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		reqs := s.Reqs
		if s.Name == spanRequest {
			reqs = []int{i}
		}
		events = append(events, device.SpanEvent{
			Name: s.Name, Start: s.Start, Dur: s.dur(), Tid: lanes[s.Name],
			Args: map[string]string{"id": strconv.Itoa(i), "parent": strconv.Itoa(s.Parent), "requests": fmt.Sprint(reqs)},
		})
	}
	return device.WriteChromeTraceSpans(w, nil, events)
}

// The wrappers. Each wraps one exported interface of the program and adds a
// span around the call it forwards; they exist only in the traced window. A
// wrapper embeds the interface for the methods it leaves alone and holds the
// one it times as a method value, not as an interface call: gnnvet resolves an
// interface call to every implementation in the load, the wrapper itself
// included, and its lock-path summaries never converge on that self-edge
// (gnnvet ./... does not return).

// tracedBackend times fw.Backend.Batch, the collation step.
type tracedBackend struct {
	fw.Backend
	batch func([]*graph.Graph, *device.Device) *fw.Batch // Backend.Batch
	rec   *recorder
}

func traceBackend(be fw.Backend, rec *recorder) *tracedBackend {
	return &tracedBackend{Backend: be, batch: be.Batch, rec: rec}
}

func (t *tracedBackend) Batch(graphs []*graph.Graph, dev *device.Device) *fw.Batch {
	reqs := t.rec.requestsFor(graphs)
	id := t.rec.begin(spanCollate, reqs)
	b := t.batch(graphs, dev)
	t.rec.end(id)
	t.rec.batchReqs.Store(b, reqs)
	return b
}

func (r *recorder) takeBatch(b *fw.Batch) []int {
	if v, ok := r.batchReqs.LoadAndDelete(b); ok {
		return v.([]int)
	}
	return nil
}

// tracedReplica times serve.Replica.Forward and hands out the traced
// backend, so the server (or fleet worker) collates through it.
type tracedReplica struct {
	serve.Replica
	forward func(*fw.Batch) *tensor.Tensor // Replica.Forward
	be      *tracedBackend
}

func (t *tracedReplica) Backend() fw.Backend { return t.be }

func (t *tracedReplica) Forward(b *fw.Batch) *tensor.Tensor {
	id := t.be.rec.begin(spanForward, t.be.rec.takeBatch(b))
	out := t.forward(b)
	t.be.rec.end(id)
	return out
}

// traceReplicas wraps a replica pool around one shared traced backend (the
// server and the fleet worker both require replicas to agree on it).
func traceReplicas(reps []serve.Replica, rec *recorder) []serve.Replica {
	be := traceBackend(reps[0].Backend(), rec)
	out := make([]serve.Replica, len(reps))
	for i, r := range reps {
		out[i] = &tracedReplica{Replica: r, forward: r.Forward, be: be}
	}
	return out
}

// tracedRunner times serve.Runner.RunBatch, the coordinator's view of one
// job's round trip to a worker.
type tracedRunner struct {
	runBatch func(context.Context, []*graph.Graph) ([]serve.Prediction, error) // Runner.RunBatch
	rec      *recorder
}

func (t *tracedRunner) RunBatch(ctx context.Context, graphs []*graph.Graph) ([]serve.Prediction, error) {
	id := t.rec.begin(spanRunBatch, t.rec.requestsFor(graphs))
	preds, err := t.runBatch(ctx, graphs)
	t.rec.end(id)
	return preds, err
}

// tracedHandler times http.Handler.ServeHTTP.
type tracedHandler struct {
	http.Handler
	rec *recorder
}

func (t *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	req, err := strconv.Atoi(r.Header.Get(requestHeader))
	if err != nil {
		t.Handler.ServeHTTP(w, r)
		return
	}
	id := t.rec.begin(spanHandler, []int{req})
	t.Handler.ServeHTTP(w, r)
	t.rec.end(id)
}

// tracedModel times models.Model.Forward for the training workload and hands
// out the traced backend, so the training loop collates through it.
type tracedModel struct {
	models.Model
	forward func(*ag.Graph, *fw.Batch, bool, *profile.LayerTimes) *ag.Node // Model.Forward
	be      *tracedBackend
}

func traceModel(m models.Model, rec *recorder) *tracedModel {
	return &tracedModel{Model: m, forward: m.Forward, be: traceBackend(m.Backend(), rec)}
}

func (t *tracedModel) Backend() fw.Backend { return t.be }

func (t *tracedModel) Forward(g *ag.Graph, b *fw.Batch, training bool, lt *profile.LayerTimes) *ag.Node {
	id := t.be.rec.begin(spanForward, t.be.rec.takeBatch(b))
	out := t.forward(g, b, training, lt)
	t.be.rec.end(id)
	return out
}
