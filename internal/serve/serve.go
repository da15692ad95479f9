// Package serve implements batched inference serving: the paper's central
// observation — that mini-batch assembly is a first-order cost and that the
// two frameworks pay wildly different prices for it (PyG's zero-overhead
// concatenation vs DGL's heterograph bookkeeping, Figs 1-2) — applies on the
// request path of an online prediction service just as it does in training.
//
// The server is a request coalescer in front of a Runner:
//
//	Predict ──▶ bounded queue ──▶ coalescer ──▶ jobs ──▶ workers ──▶ Runner.RunBatch
//	  ▲                                                                   │
//	  └────────────────────── per-request response ◀──────────────────────┘
//
// Single-graph prediction requests enter a bounded queue (overflow is
// rejected immediately — the caller's backpressure signal, HTTP 429 through
// the handler). The coalescer gathers up to MaxBatch requests, lingering at
// most BatchWindow; only for a short quiet gap while the pool has spare
// capacity (see coalesce for the utilisation gate), and hands the group to
// one of the workers, which runs it through the Runner and answers every
// request in the group. The Runner is either the local replica Pool — which
// collates the group's graphs into one batch through the framework backend's
// real batching path (so both frameworks' batching costs are measurable end
// to end) and runs one forward-only pass — or a fleet manager shipping the
// group to a worker process that runs the same Pool. Per-request deadlines
// are honored via context; shutdown stops intake and drains every accepted
// request.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/fw"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/profile"
)

// Sentinel errors the server reports; the HTTP handler maps them to status
// codes (429, 503, 400).
var (
	// ErrQueueFull reports that the bounded request queue is at capacity.
	ErrQueueFull = errors.New("serve: request queue full")
	// ErrClosed reports that the server has stopped accepting requests.
	ErrClosed = errors.New("serve: server closed")
	// ErrInvalid wraps request-validation failures.
	ErrInvalid = errors.New("serve: invalid request")
	// ErrPredictedOverSLO reports that the cost model predicted the request
	// cannot be served within the admission latency budget even on its own —
	// the caller should shrink the graph, not retry.
	ErrPredictedOverSLO = errors.New("serve: predicted latency over SLO budget")
)

// Options configures a Server.
type Options struct {
	// MaxBatch is the largest number of graphs collated into one forward
	// batch (default 32).
	MaxBatch int
	// QueueDepth bounds the number of queued-but-undispatched requests;
	// arrivals beyond it fail with ErrQueueFull (default 256).
	QueueDepth int
	// BatchWindow is the most a request waits in the coalescer for company
	// (default 2ms). The whole window is spent only while the dispatch
	// workers are saturated, where a fuller batch is the one thing that raises
	// throughput; while they have spare capacity a batch closes once a worker
	// is idle and the queue has stayed drained for a short quiet gap (a
	// quarter of a millisecond, never more than the window). Negative means
	// no lingering under any load: a batch is whatever is already queued,
	// capped at MaxBatch.
	BatchWindow time.Duration
	// Timeout is the per-request deadline applied when the caller's context
	// carries none (default 1s).
	Timeout time.Duration
	// NumFeatures, when positive, is the node-feature width requests must
	// carry; mismatches fail with ErrInvalid before queuing.
	NumFeatures int
	// Registry receives the server's metrics (and is what GET /metrics and
	// /debug/vars render, so callers can add runtime/device collectors to it
	// for one combined scrape). Nil creates a private registry. One registry
	// backs at most one server: the gnnserve_* names would collide.
	Registry *obs.Registry
	// Tracer, when non-nil, records one span per forward batch (with
	// collate/forward children) onto the shared trace timeline.
	Tracer *obs.Tracer
	// Events, when non-nil, receives serving lifecycle events (model
	// reload, drain).
	Events *obs.EventLog
	// Flight, when non-nil, is dumped when the SLO tracker detects a p99
	// breach, and rendered by GET /debug/flightrecorder.
	Flight *obs.FlightRecorder
	// SLOTarget, when positive, arms a rolling-window p99 latency objective
	// over Predict: gnnlab_slo_* series appear on the registry and a breach
	// triggers a flight-recorder dump.
	SLOTarget time.Duration
	// SLOWindow overrides the SLO tracker's rolling sample window (default
	// obs.DefaultSLOWindow).
	SLOWindow int
	// Predictor, when non-nil, arms cost-model admission control: every
	// coalesced group's forward latency is predicted before dispatch, and a
	// group predicted over AdmissionBudget is split deadline-aware into
	// fitting sub-batches — or rejected with ErrPredictedOverSLO (HTTP 429)
	// when a single request alone cannot fit. gnnlab_costmodel_* metrics
	// appear on the registry.
	Predictor LatencyPredictor
	// AdmissionBudget is the predicted-latency budget admission control
	// enforces per dispatch group; it defaults to SLOTarget. A Predictor with
	// neither set is a configuration error (newServer panics).
	AdmissionBudget time.Duration
}

func (o *Options) defaults() {
	if o.MaxBatch <= 0 {
		o.MaxBatch = 32
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 256
	}
	if o.BatchWindow == 0 {
		o.BatchWindow = 2 * time.Millisecond
	}
	if o.Timeout <= 0 {
		o.Timeout = time.Second
	}
	if o.AdmissionBudget <= 0 {
		o.AdmissionBudget = o.SLOTarget
	}
}

// Prediction is one request's answer.
type Prediction struct {
	// Class is the argmax class index.
	Class int
	// Logits are the per-class scores.
	Logits []float64
}

type result struct {
	pred Prediction
	err  error
}

type request struct {
	ctx      context.Context
	g        *graph.Graph
	enqueued time.Time   // when Predict offered it to the queue
	done     chan result // buffered(1); written exactly once via respond
	// answered is touched only by the single goroutine that owns the request
	// at the time — the worker serving its dispatch group, or the coalescer
	// for admission rejections (a rejected request never reaches a worker).
	// It makes respond idempotent so the panic recovery path cannot
	// double-send.
	answered bool
}

func (r *request) respond(res result) {
	if r.answered {
		return
	}
	r.answered = true
	r.done <- res
}

// Stats is a snapshot of the server's counters.
type Stats struct {
	// QueueDepth is the number of requests queued but not yet dispatched.
	QueueDepth int
	// Accepted counts requests admitted to the queue.
	Accepted int64
	// Rejected counts requests refused with ErrQueueFull.
	Rejected int64
	// Responded counts requests answered (predictions and errors alike).
	Responded int64
	// Expired counts accepted requests whose deadline passed before their
	// batch ran; they are answered with the context error.
	Expired int64
	// Batches counts forward batches executed.
	Batches int64
	// BatchSizes is the distribution of live graphs per forward batch.
	BatchSizes *profile.Histogram
	// Phases accumulates per-phase serving time: collation under
	// PhaseDataLoad, model forward under PhaseForward, response delivery and
	// bookkeeping under PhaseOther.
	Phases profile.Breakdown
}

// serveMetrics holds the server's registry instruments. Every counter the
// old hand-rolled Stats struct tracked now lives in the registry, which is
// the single source of truth: Stats() reads back from these instruments.
type serveMetrics struct {
	accepted  *obs.Counter
	rejected  *obs.Counter
	expired   *obs.Counter
	responded *obs.Counter
	batches   *obs.Counter
	batchSize *obs.Histogram
	// queueWait is the time from Predict offering a request to the queue to
	// a dispatch worker holding its group: linger, admission and hand-off.
	queueWait *obs.Histogram
	// closed counts coalesced groups by why they stopped growing.
	closed [numCloseReasons]*obs.Counter
	// utilization is the coalescer's smoothed estimate of how busy the
	// dispatch workers are (see coalesce).
	utilization *obs.Gauge
	// phaseSeconds accumulates serving time by phase: collate (collation
	// through the backend), forward (replica forward pass), other (response
	// delivery and bookkeeping).
	phaseCollate *obs.Counter
	phaseForward *obs.Counter
	phaseOther   *obs.Counter
	// reload counters track zero-downtime model swaps by outcome.
	reloadOK  *obs.Counter
	reloadErr *obs.Counter
	// cm holds the gnnlab_costmodel_* admission instruments; populated only
	// when a Predictor is armed.
	cm admissionMetrics
}

// Runner executes one coalesced dispatch group: the local replica Pool in a
// single-process server, a fleet manager shipping groups to worker processes
// over RPC in coordinator mode. RunBatch must return exactly one Prediction
// per graph, in order; ctx carries the group's latest request deadline, is
// cancelled when the server no longer wants the answer (per-job cancellation
// propagates to the wire), and holds the batch span to nest under
// (obs.SpanFromContext). Implementations are called from up to the
// configured number of concurrent dispatch goroutines and must be safe for
// that.
type Runner interface {
	RunBatch(ctx context.Context, graphs []*graph.Graph) ([]Prediction, error)
}

// Server coalesces single-graph prediction requests into dispatch groups and
// runs each through a Runner: a local replica Pool (New) or a remote fleet
// (NewDispatch, the coordinator mode). Create one with New or NewDispatch; it
// is safe for concurrent use.
type Server struct {
	runner Runner
	pool   *Pool // the runner when it is the local pool, else nil
	opt    Options
	reg    *obs.Registry
	met    serveMetrics
	slo    *obs.SLOTracker

	queue chan *request
	jobs  chan []*request

	mu     sync.RWMutex // guards closed against queue sends
	closed bool

	workers     sync.WaitGroup
	concurrency int // dispatch workers started
	// load is the busy-worker accounting behind the coalescer's utilisation
	// gate: the coalescer counts a worker busy when it hands a group over,
	// the worker counts itself idle once the group is answered.
	load struct {
		mu       sync.Mutex
		busy     int           // groups handed to a worker and not yet answered
		integral time.Duration // busy integrated over time, up to since
		since    time.Time
	}
	now func() time.Time // the load accounting's clock; tests substitute it
	// gap is how long a group waits for further arrivals while the pool has
	// spare capacity: quietGap, never more than the window. Tests stretch it.
	gap time.Duration
	// idle holds a token once a worker has gone idle since the coalescer last
	// looked: what wakes a group lingering for a free worker.
	idle chan struct{}
}

// New starts a single-process server: NewDispatch over a Pool of the given
// replicas, one dispatch goroutine per replica. It panics on an empty or
// backend-disagreeing replica set (see NewPool).
func New(replicas []Replica, opt Options) *Server {
	p := NewPool(replicas)
	s := newServer(opt)
	// The local pool times collation and forward around the backend and
	// replica calls themselves; a remote runner's whole round trip is
	// accounted under forward by serveGroup.
	s.pool = p
	p.collate, p.forward = s.met.phaseCollate, s.met.phaseForward
	s.start(p, len(replicas))
	return s
}

// NewDispatch starts a server in coordinator mode: the same admission
// control, bounded queue and coalescer as New, but dispatch groups are handed
// to run (typically a fleet manager shipping them to worker processes) from
// concurrency parallel dispatch goroutines instead of a local pool.
// Collation happens wherever the Runner executes, so the coordinator never
// touches a framework backend; Backend() reports nil and SwapModel fails
// (reload the workers, not the coordinator). Set Options.NumFeatures so
// malformed requests are still rejected at admission.
func NewDispatch(run Runner, concurrency int, opt Options) *Server {
	if run == nil {
		panic("serve: dispatch with nil runner")
	}
	if concurrency <= 0 {
		panic(fmt.Sprintf("serve: dispatch needs positive concurrency, got %d", concurrency))
	}
	s := newServer(opt)
	s.start(run, concurrency)
	return s
}

// start launches the coalescer and concurrency workers dispatching to run.
func (s *Server) start(run Runner, concurrency int) {
	s.runner = run
	s.concurrency = concurrency
	s.load.since = s.now()
	// The coalescer's unguarded send is the backpressure: it must block while
	// every worker is busy. It can only block *forever* if all workers die,
	// which serveGroup's recover rules out.
	//gnnvet:allow goroutine-leak -- jobs send is bounded by worker liveness; workers recover all panics
	go s.coalesce()
	s.workers.Add(concurrency)
	for i := 0; i < concurrency; i++ {
		go s.worker()
	}
}

// newServer builds the shared core: defaulted options, registry-backed
// metrics, queue and job channels.
func newServer(opt Options) *Server {
	opt.defaults()
	reg := opt.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Server{
		opt:   opt,
		reg:   reg,
		queue: make(chan *request, opt.QueueDepth),
		jobs:  make(chan []*request),
		idle:  make(chan struct{}, 1),
		now:   time.Now,
		gap:   min(quietGap, opt.BatchWindow),
	}
	requests := reg.CounterVec("gnnserve_requests_total", "Prediction requests by admission outcome.", "outcome")
	s.met = serveMetrics{
		accepted:  requests.With("accepted"),
		rejected:  requests.With("rejected"),
		expired:   requests.With("expired"),
		responded: reg.Counter("gnnserve_responses_total", "Requests answered (predictions and errors alike)."),
		batches:   reg.Counter("gnnserve_batches_total", "Forward batches executed."),
		batchSize: reg.Histogram("gnnserve_batch_size", "Live graphs per forward batch.", batchBounds(opt.MaxBatch)...),
		queueWait: reg.Histogram("gnnserve_queue_wait_seconds",
			"Time from a request's acceptance to a dispatch worker holding its group.",
			25e-6, 50e-6, 100e-6, 250e-6, 500e-6, 1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 1),
		utilization: reg.Gauge("gnnserve_pool_utilization",
			"Smoothed share of dispatch-worker time spent serving groups; the coalescer spends the batch window only while it is high."),
	}
	closes := reg.CounterVec("gnnserve_batch_close_total", "Coalesced groups by why they stopped growing (full/idle/window/drain).", "reason")
	for r := range s.met.closed {
		s.met.closed[r] = closes.With(closeReason(r).String())
	}
	s.met.utilization.Set(1)
	phases := reg.CounterVec("gnnserve_phase_seconds", "Serving time by phase (collate/forward/other).", "phase")
	s.met.phaseCollate = phases.With("collate")
	s.met.phaseForward = phases.With("forward")
	s.met.phaseOther = phases.With("other")
	reloads := reg.CounterVec("gnnserve_reloads_total", "Zero-downtime model reloads by outcome.", "outcome")
	s.met.reloadOK = reloads.With("ok")
	s.met.reloadErr = reloads.With("error")
	reg.GaugeFunc("gnnserve_queue_depth", "Requests queued but not yet dispatched.",
		func() float64 { return float64(len(s.queue)) })
	if opt.Predictor != nil {
		if s.opt.AdmissionBudget <= 0 {
			panic("serve: Options.Predictor requires AdmissionBudget or SLOTarget")
		}
		s.met.cm = registerAdmissionMetrics(reg, s.opt.AdmissionBudget)
	}
	if opt.SLOTarget > 0 {
		s.slo = obs.NewSLOTracker(obs.SLOOptions{
			Target:      opt.SLOTarget,
			Window:      opt.SLOWindow,
			Registry:    reg,
			MinInterval: time.Second,
			OnBreach: func(p99 time.Duration) {
				// The breach itself is the forensic moment: record it, then
				// freeze the recent spans/events/metrics to disk.
				opt.Events.Warn("slo-breach",
					obs.String("p99", p99.String()),
					obs.String("target", opt.SLOTarget.String()))
				opt.Flight.Dump("slo-breach")
			},
		})
	}
	return s
}

// batchBounds builds power-of-two batch-size bucket bounds up to maxBatch.
func batchBounds(maxBatch int) []float64 {
	var bounds []float64
	for b := 1; b < maxBatch; b *= 2 {
		bounds = append(bounds, float64(b))
	}
	return append(bounds, float64(maxBatch))
}

// Options returns the server's effective (defaulted) options.
func (s *Server) Options() Options { return s.opt }

// Backend returns the framework backend requests are collated through, or
// nil for a dispatch-mode server (collation happens in the workers).
func (s *Server) Backend() fw.Backend {
	if s.pool == nil {
		return nil
	}
	return s.pool.Backend()
}

// Predict submits one graph for classification and blocks until its batch
// has been served or ctx expires. The error is ErrQueueFull when the bounded
// queue is at capacity, ErrClosed after Shutdown, an ErrInvalid-wrapped
// validation error for malformed graphs, or the context error when the
// deadline passes first.
func (s *Server) Predict(ctx context.Context, g *graph.Graph) (Prediction, error) {
	if g == nil {
		return Prediction{}, fmt.Errorf("%w: nil graph", ErrInvalid)
	}
	if err := g.Validate(); err != nil {
		return Prediction{}, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	if g.NumNodes == 0 {
		return Prediction{}, fmt.Errorf("%w: empty graph", ErrInvalid)
	}
	if g.X == nil {
		return Prediction{}, fmt.Errorf("%w: graph carries no node features", ErrInvalid)
	}
	if s.opt.NumFeatures > 0 && g.NumFeatures() != s.opt.NumFeatures {
		return Prediction{}, fmt.Errorf("%w: graph has %d features, server expects %d", ErrInvalid, g.NumFeatures(), s.opt.NumFeatures)
	}
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.opt.Timeout)
		defer cancel()
	}
	start := time.Now()
	req := &request{ctx: ctx, g: g, enqueued: start, done: make(chan result, 1)}

	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return Prediction{}, ErrClosed
	}
	select {
	case s.queue <- req:
		s.mu.RUnlock()
	default:
		s.mu.RUnlock()
		s.met.rejected.Inc()
		return Prediction{}, ErrQueueFull
	}
	s.met.accepted.Inc()

	select {
	case res := <-req.done:
		// Deadline expiries count against the SLO too — a request the
		// caller gave up on is the worst latency of all.
		s.slo.Observe(time.Since(start))
		return res.pred, res.err
	case <-ctx.Done():
		// The batch still answers the buffered done channel; nothing leaks.
		s.slo.Observe(time.Since(start))
		return Prediction{}, ctx.Err()
	}
}

// closeReason is why a coalesced group stopped growing.
type closeReason int

const (
	closeFull   closeReason = iota // reached MaxBatch
	closeIdle                      // spare capacity: a worker idle and the quiet gap over
	closeWindow                    // BatchWindow ran out
	closeDrain                     // lingering is off (BatchWindow < 0) or intake closed
	numCloseReasons
)

func (r closeReason) String() string {
	return [numCloseReasons]string{"full", "idle", "window", "drain"}[r]
}

const (
	// saturatedUtilization is the smoothed worker utilisation at or above
	// which a group lingers for the whole BatchWindow. The measured workloads
	// sit far to either side (closed-loop and open-loop request traffic
	// 0.2-0.5, a saturated pool 0.99), so anything in 0.6-0.9 separates them.
	saturatedUtilization = 0.75
	// utilizationSmoothing is the weight of the newest group's sample in the
	// estimate. From the initial 1.0 an idle pool crosses the threshold on its
	// third sample, and no single odd sample (two groups closed microseconds
	// apart, say) moves the estimate across it from either side's usual
	// reading.
	utilizationSmoothing = 1.0 / 8
	// quietGap is how long a group waits for further arrivals while the pool
	// has spare capacity: long enough that callers answered together come
	// back into one group (they return within tens of microseconds of each
	// other), an eighth of the default window. An idle process sleeps a
	// millisecond on it all the same, because the Go netpoller rounds a
	// shorter sleep up; that sleep, not the processor, then sets the request
	// rate, which is what keeps it steady on a host whose speed wanders.
	quietGap = 250 * time.Microsecond
)

// coalesce gathers queued requests into dispatch groups of at most MaxBatch.
//
// The batch window exists to fill batches for a saturated pool: there a
// fuller batch is the only thing that raises throughput, and the requests
// would have waited for a worker anyway. Below saturation it only adds its
// length to every request's latency. So the coalescer measures saturation —
// per group, the time-integral of busy dispatch workers over workers x wall
// time since the previous group, exponentially smoothed — and gates the
// linger on it:
//
//   - at or above saturatedUtilization (and on a fresh server, whose estimate
//     starts at 1.0 until it has evidence) a group fills to MaxBatch or until
//     BatchWindow has passed;
//   - below it a group closes once a worker is idle and quietGap has passed
//     since the queue was first found drained. With every worker busy the
//     group keeps growing, for at most the window, and a worker going idle
//     wakes it.
//
// The gate is utilisation, not "a worker is idle" and not recent group sizes:
// a saturated worker is idle for the microseconds between answering one full
// batch and its callers coming back, and closing on that splits every burst
// into 1 + 31; and an average of group sizes never decays, because waiting
// is what produces company. And the gap is a timer, not a yield of the
// processor: closing at once is faster still (a third of the latency on two
// closed-loop HTTP clients), but then no part of a request waits on a clock,
// the loop saturates the host's processors, and the request rate follows
// their speed from one run to the next. DESIGN.md section 8 has the
// measurements.
func (s *Server) coalesce() {
	defer close(s.jobs)
	util := 1.0
	var lastClose time.Time
	var lastIntegral time.Duration
	for first := range s.queue {
		group := make([]*request, 1, s.opt.MaxBatch)
		group[0] = first
		group, reason := s.fill(group, util < saturatedUtilization)
		s.met.closed[reason].Inc()

		now, integral := s.shiftBusy(0)
		if elapsed := now.Sub(lastClose); !lastClose.IsZero() && elapsed > 0 {
			sample := float64(integral-lastIntegral) / (float64(elapsed) * float64(s.concurrency))
			util += float64((min(max(sample, 0), 1) - util) * utilizationSmoothing)
			s.met.utilization.Set(util)
		}
		lastClose, lastIntegral = now, integral

		for _, sub := range s.admit(group) {
			s.jobs <- sub
			s.shiftBusy(1)
		}
	}
}

// fill grows group from the queue until one of the close reasons holds. early
// selects the spare-capacity policy (see coalesce).
func (s *Server) fill(group []*request, early bool) ([]*request, closeReason) {
	// The timers are created only when the coalescer is about to block; a
	// group that closes full or drained needs none.
	var window, gap *time.Timer
	defer func() {
		if window != nil {
			window.Stop()
		}
		if gap != nil {
			gap.Stop()
		}
	}()
	// A nil channel never delivers: only the spare-capacity policy runs a
	// quiet gap and is woken by a worker going idle.
	var (
		quiet <-chan time.Time
		idle  <-chan struct{}
	)
	gapOver := false
	for len(group) < s.opt.MaxBatch {
		var r *request
		ok := true
		select {
		case r, ok = <-s.queue:
		default: // the queue is drained
			switch {
			case s.opt.BatchWindow <= 0:
				return group, closeDrain
			case gapOver && s.workerIdle():
				return group, closeIdle
			}
			if window == nil {
				window = time.NewTimer(s.opt.BatchWindow)
				if early {
					gap = time.NewTimer(s.gap)
					quiet, idle = gap.C, s.idle
				}
			}
			select {
			case r, ok = <-s.queue:
			case <-window.C:
				return group, closeWindow
			case <-quiet:
				gapOver, quiet = true, nil
				continue
			case <-idle:
				continue
			}
		}
		if !ok {
			return group, closeDrain
		}
		group = append(group, r)
	}
	return group, closeFull
}

// shiftBusy advances the busy-worker integral to now, moves the busy count
// by delta and returns both. A worker may answer its group before the
// coalescer has counted the hand-over; the count then dips below zero for
// that instant and the integral comes out the same.
func (s *Server) shiftBusy(delta int) (now time.Time, integral time.Duration) {
	s.load.mu.Lock()
	defer s.load.mu.Unlock()
	now = s.now()
	s.load.integral += time.Duration(s.load.busy) * now.Sub(s.load.since)
	s.load.since = now
	s.load.busy += delta
	return now, s.load.integral
}

// workerIdle reports whether a dispatch worker is free to take a group now.
func (s *Server) workerIdle() bool {
	s.load.mu.Lock()
	defer s.load.mu.Unlock()
	return s.load.busy < s.concurrency
}

// worker serves dispatch groups until the job stream closes, announcing
// itself idle after each.
func (s *Server) worker() {
	defer s.workers.Done()
	for group := range s.jobs {
		s.serveGroup(group)
		s.shiftBusy(-1)
		select {
		case s.idle <- struct{}{}:
		default: // a token is already waiting
		}
	}
}

// serveGroup answers one dispatch group exactly once: expired requests get
// their context error, the rest travel through the runner under the group's
// context and batch span and are answered row by row, or all with the
// runner's error. The runner reports its own failures as errors, but a panic
// anywhere in here (a custom Runner, expiry handling, tracing) would kill the
// worker — and once every worker is dead the coalescer wedges forever on the
// unbuffered jobs channel, hanging all callers and Shutdown with it. Any
// panic answers the whole group instead (respond is idempotent, so requests
// already answered are untouched) and the worker lives on.
func (s *Server) serveGroup(group []*request) {
	defer func() {
		if p := recover(); p != nil {
			err := fmt.Errorf("serve: runner failure: %v", p)
			for _, r := range group {
				r.respond(result{err: err})
			}
		}
	}()
	handed := time.Now()
	for _, r := range group {
		s.met.queueWait.Observe(handed.Sub(r.enqueued).Seconds())
	}
	// Counted before anything is delivered, so a caller holding its answer
	// also finds it in Stats; the recover above keeps the count true.
	s.met.responded.Add(float64(len(group)))
	live, expired := splitExpired(group)
	s.met.expired.Add(float64(expired))
	if len(live) == 0 {
		return
	}
	s.met.batches.Inc()
	s.met.batchSize.Observe(float64(len(live)))
	graphs := make([]*graph.Graph, len(live))
	for i, r := range live {
		graphs[i] = r.g
	}
	span := s.opt.Tracer.Start("serve-batch", obs.Int("graphs", len(live)))
	defer span.End()
	ctx, cancel := groupContext(live)
	defer cancel()

	start := time.Now()
	preds, err := s.runner.RunBatch(obs.ContextWithSpan(ctx, span), graphs)
	ran := time.Now()
	if s.pool == nil {
		s.met.phaseForward.Add(ran.Sub(start).Seconds())
	}
	if err == nil && len(preds) != len(live) {
		err = fmt.Errorf("serve: runner answered %d of %d graphs", len(preds), len(live))
	}
	for i, r := range live {
		if err != nil {
			r.respond(result{err: err})
		} else {
			r.respond(result{pred: preds[i]})
		}
	}
	s.met.phaseOther.Add(time.Since(ran).Seconds())
}

// splitExpired answers already-expired requests with their context error and
// returns the still-live remainder.
func splitExpired(group []*request) (live []*request, expired int64) {
	live = make([]*request, 0, len(group))
	for _, r := range group {
		if err := r.ctx.Err(); err != nil {
			r.respond(result{err: err})
			expired++
		} else {
			live = append(live, r)
		}
	}
	return live, expired
}

// groupContext derives the context a dispatch group travels under: cancelled
// once the latest per-request deadline in the group has passed, so a group
// nobody is waiting for anymore is cancelled on the wire instead of occupying
// a worker pod.
func groupContext(live []*request) (context.Context, context.CancelFunc) {
	var latest time.Time
	for _, r := range live {
		dl, ok := r.ctx.Deadline()
		if !ok {
			return context.WithCancel(context.Background())
		}
		if dl.After(latest) {
			latest = dl
		}
	}
	return context.WithDeadline(context.Background(), latest)
}

// SwapModel atomically replaces the model behind every swappable replica
// with m — a zero-downtime reload. In-flight batches finish on the weights
// they started with (each replica loads its model pointer once per batch),
// queued and future requests see the new model, and no request is dropped.
// The swap is all-or-nothing (see Pool.Swap), and fails on a dispatch-mode
// server, which holds no replicas.
func (s *Server) SwapModel(m models.Model) error {
	var err error
	if s.pool == nil {
		err = errors.New("serve: dispatch-mode server holds no local replicas; reload the workers instead")
	} else {
		err = s.pool.Swap(m)
	}
	if err != nil {
		s.met.reloadErr.Inc()
		s.opt.Events.Warn("model-reload-failed", obs.String("error", err.Error()))
		return err
	}
	s.met.reloadOK.Inc()
	s.opt.Events.Info("model-reload", obs.Int("replicas", len(s.pool.replicas)))
	return nil
}

// Shutdown stops intake (subsequent Predicts fail with ErrClosed) and waits
// until every accepted request has been answered or ctx expires; the drain
// continues in the background in the latter case. Safe to call more than
// once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	first := !s.closed
	if first {
		s.closed = true
		close(s.queue)
	}
	s.mu.Unlock()
	if first {
		s.opt.Events.Info("drain-begin", obs.Int("queued", len(s.queue)))
	}
	done := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(done)
	}()
	select {
	case <-done:
		if first {
			s.opt.Events.Info("drain-complete")
		}
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Closed reports whether the server has stopped accepting requests.
func (s *Server) Closed() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.closed
}

// Stats returns a snapshot of the serving counters, read back from the
// metrics registry (each counter is individually consistent; the snapshot
// as a whole is not a single atomic cut).
func (s *Server) Stats() Stats {
	var snap Stats
	snap.QueueDepth = len(s.queue)
	snap.Accepted = int64(s.met.accepted.Value())
	snap.Rejected = int64(s.met.rejected.Value())
	snap.Expired = int64(s.met.expired.Value())
	snap.Responded = int64(s.met.responded.Value())
	snap.Batches = int64(s.met.batches.Value())
	snap.BatchSizes = s.met.batchSize.Snapshot()
	snap.Phases.Add(profile.PhaseDataLoad, secondsToDuration(s.met.phaseCollate.Value()))
	snap.Phases.Add(profile.PhaseForward, secondsToDuration(s.met.phaseForward.Value()))
	snap.Phases.Add(profile.PhaseOther, secondsToDuration(s.met.phaseOther.Value()))
	return snap
}

func secondsToDuration(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}
