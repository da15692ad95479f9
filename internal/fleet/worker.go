// Package fleet turns the single-process server into a distributed one: a
// coordinator (the serve.Server in dispatch mode) fans coalesced request
// groups out to a fleet of worker processes over the rpc package's framed
// TCP protocol, and the fleet manager keeps that set of workers healthy —
// registration with protocol-version and model-hash verification, periodic
// health checks, eviction of dead workers, and automatic re-join with
// exponential backoff after a crash.
//
// Topology:
//
//	HTTP ─▶ serve.Server (coordinator) ─▶ fleet.Manager ── TCP ──▶ fleet.Worker ─▶ serve.Pool
//	                                          │                        │
//	                                          └── health / evict / ────┘
//	                                              re-join loop
//
// The Manager is the coordinator's serve.Runner; the Worker runs each job
// through the same serve.Pool a single-process server dispatches to, so the
// batch itself (collate, forward, row copies, panic isolation) is one piece
// of code in every deployment.
//
// The split preserves the serving contract end to end: predictions are
// float64 bit patterns on the wire, so a fleet answers bit-identically to
// the single-process server; accepted requests survive worker crashes
// because the manager retries their jobs on surviving workers; and
// saturation surfaces as HTTP 429 at the coordinator, never as an unbounded
// queue.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/rpc"
	"repro/internal/serve"
)

// WorkerOptions configures a Worker.
type WorkerOptions struct {
	// ID names the worker in handshakes, metrics and spans (default the
	// listener address at Serve time).
	ID string
	// MaxPods caps concurrently executing jobs; arrivals beyond it are
	// refused with a retryable busy error, never queued (default: one pod
	// per replica).
	MaxPods int
	// ModelHash is the fingerprint of the weights the replicas serve
	// (ModelHash over the checkpoint's parameters). It is reported in the
	// Welcome so coordinators can refuse a worker serving the wrong model.
	ModelHash [32]byte
	// SendTimeout bounds every frame write; a coordinator that stops
	// draining its connection is disconnected rather than blocking a pod
	// forever (default 5s).
	SendTimeout time.Duration
	// Registry receives gnnlab_fleet_worker_* metrics; nil creates a
	// private registry.
	Registry *obs.Registry
	// Tracer, when non-nil, records one span per served job with
	// collate/forward/stream children. Jobs arriving with a trace context
	// open their span under that context, and the completed records ship
	// back to the coordinator in a Spans frame for stitching.
	Tracer *obs.Tracer
	// Events, when non-nil, receives worker lifecycle events (serving,
	// replica panics).
	Events *obs.EventLog
	// Flight, when non-nil, captures a flight-recorder dump when a replica
	// panics mid-job.
	Flight *obs.FlightRecorder

	// forceVersion, when nonzero, overrides the protocol version the worker
	// advertises and accepts — the version-skew test hook.
	forceVersion uint32
}

func (o *WorkerOptions) defaults(replicas int) {
	if o.MaxPods <= 0 {
		o.MaxPods = replicas
	}
	if o.SendTimeout <= 0 {
		o.SendTimeout = 5 * time.Second
	}
	if o.Registry == nil {
		o.Registry = obs.NewRegistry()
	}
}

// Worker is the fleet protocol's shell around a serve.Pool — the same pool a
// single-process server dispatches to. One process runs one Worker; the
// coordinator connects to many.
type Worker struct {
	opt  WorkerOptions
	pool *serve.Pool

	pods   atomic.Int64 // jobs currently admitted (capped at MaxPods)
	served atomic.Int64 // jobs answered with JobDone since start

	met workerMetrics

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool

	wg sync.WaitGroup
}

type workerMetrics struct {
	jobsOK        *obs.Counter
	jobsBusy      *obs.Counter
	jobsErr       *obs.Counter
	jobsCancelled *obs.Counter
}

// NewWorker builds a worker over a serve.Pool of the given replicas, under
// serve.NewPool's contract: it panics on an empty set or on replicas whose
// collation backends disagree.
func NewWorker(replicas []serve.Replica, opt WorkerOptions) *Worker {
	opt.defaults(len(replicas))
	return &Worker{opt: opt, pool: serve.NewPool(replicas), conns: map[net.Conn]struct{}{}}
}

// registerMetrics runs at Serve time, once the worker ID is final.
func (w *Worker) registerMetrics() {
	jobs := w.opt.Registry.CounterVec("gnnlab_fleet_worker_jobs_total",
		"Jobs handled by this worker, by outcome.", "worker", "outcome")
	w.met = workerMetrics{
		jobsOK:        jobs.With(w.opt.ID, "ok"),
		jobsBusy:      jobs.With(w.opt.ID, "busy"),
		jobsErr:       jobs.With(w.opt.ID, "error"),
		jobsCancelled: jobs.With(w.opt.ID, "cancelled"),
	}
	w.opt.Registry.GaugeVec("gnnlab_fleet_worker_pods_inflight",
		"Jobs currently executing on this worker.", "worker").
		Func(func() float64 { return float64(w.pods.Load()) }, w.opt.ID)
}

// Serve accepts coordinator connections on ln until Close. It returns nil
// after Close, or the accept error that stopped it.
func (w *Worker) Serve(ln net.Listener) error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return errors.New("fleet: worker closed")
	}
	w.ln = ln
	if w.opt.ID == "" {
		w.opt.ID = ln.Addr().String()
	}
	w.mu.Unlock()
	w.registerMetrics()
	w.opt.Events.Info("fleet-worker-serving",
		obs.String("worker", w.opt.ID), obs.Int("pods", w.opt.MaxPods))
	for {
		c, err := ln.Accept()
		if err != nil {
			w.mu.Lock()
			closed := w.closed
			w.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		w.mu.Lock()
		if w.closed {
			w.mu.Unlock()
			c.Close()
			return nil
		}
		w.conns[c] = struct{}{}
		w.wg.Add(1)
		w.mu.Unlock()
		go w.handleConn(c)
	}
}

// Close abruptly stops the worker: the listener and every connection are
// closed and in-flight jobs are cancelled. Deliberately ungraceful — it is
// the crash the chaos test injects; graceful drain is the coordinator's job
// (it retries interrupted work elsewhere).
func (w *Worker) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	ln := w.ln
	// Closing under the lock is safe: Conn.Close never re-enters the worker,
	// and the order conns die in is irrelevant — they all die.
	for c := range w.conns {
		c.Close()
	}
	w.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	w.wg.Wait()
	return nil
}

// JobsServed reports how many jobs this worker has answered with JobDone —
// the chaos test's evidence that work actually spread across the fleet.
func (w *Worker) JobsServed() int64 { return w.served.Load() }

// version is the protocol version the worker speaks (test hook aside).
func (w *Worker) version() uint32 {
	if w.opt.forceVersion != 0 {
		return w.opt.forceVersion
	}
	return rpc.ProtocolVersion
}

// wconn is one coordinator connection: a shared write path (frames from
// concurrent job goroutines interleave whole, never interleave bytes) and
// the cancel functions of the jobs in flight on it.
type wconn struct {
	c   net.Conn
	wmu sync.Mutex

	jmu  sync.Mutex
	jobs map[uint64]context.CancelFunc
}

// send writes one frame under the connection's write lock with the worker's
// send timeout; on error the connection is closed, which cancels everything
// in flight on it (the read loop exits and cancels all jobs).
func (w *Worker) send(wc *wconn, f rpc.Frame) error {
	wc.wmu.Lock()
	wc.c.SetWriteDeadline(time.Now().Add(w.opt.SendTimeout))
	err := rpc.WriteFrame(wc.c, f)
	wc.wmu.Unlock()
	if err != nil {
		wc.c.Close()
	}
	return err
}

// handshakeTimeout bounds how long a fresh connection may take to identify
// itself before the worker drops it.
const handshakeTimeout = 10 * time.Second

func (w *Worker) handleConn(c net.Conn) {
	defer w.wg.Done()
	defer w.dropConn(c)

	// Handshake: the client leads with Hello; the worker answers Welcome
	// (version, pod budget, model hash, id) or Refuse with a reason.
	c.SetReadDeadline(time.Now().Add(handshakeTimeout))
	f, err := rpc.ReadFrame(c)
	if err != nil || f.Type != rpc.FrameHello {
		return
	}
	h, err := rpc.DecodeHello(f.Payload)
	if err != nil {
		return
	}
	wc := &wconn{c: c, jobs: map[uint64]context.CancelFunc{}}
	if h.Version != w.version() {
		msg := fmt.Sprintf("rpc: protocol version %d not supported (worker speaks %d)", h.Version, w.version())
		w.send(wc, rpc.Frame{Type: rpc.FrameRefuse, Payload: rpc.AppendRefuse(nil, rpc.Refuse{Message: msg})})
		return
	}
	welcome, err := rpc.AppendWelcome(nil, rpc.Welcome{
		Version:   w.version(),
		MaxPods:   uint32(w.opt.MaxPods),
		ModelHash: w.opt.ModelHash,
		WorkerID:  w.opt.ID,
	})
	if err != nil {
		return
	}
	if w.send(wc, rpc.Frame{Type: rpc.FrameWelcome, Payload: welcome}) != nil {
		return
	}
	c.SetReadDeadline(time.Time{})

	defer wc.cancelAll()
	for {
		f, err := rpc.ReadFrame(c)
		if err != nil {
			return // connection gone; deferred cancelAll stops its jobs
		}
		switch f.Type {
		case rpc.FrameJob:
			if !w.tryAcquirePod() {
				w.met.jobsBusy.Inc()
				pl := rpc.AppendJobErr(nil, rpc.JobErr{Code: rpc.ErrCodeBusy, Message: "fleet: worker at pod cap"})
				if w.send(wc, rpc.Frame{Type: rpc.FrameJobErr, Job: f.Job, Payload: pl}) != nil {
					return
				}
				continue
			}
			ctx, cancel := context.WithCancel(context.Background())
			wc.register(f.Job, cancel)
			w.wg.Add(1)
			go w.runJob(ctx, wc, f.Job, f.Payload)
		case rpc.FrameCancel:
			wc.cancel(f.Job)
		case rpc.FramePing:
			pl := rpc.AppendPong(nil, rpc.Pong{RunningPods: uint32(w.pods.Load())})
			if w.send(wc, rpc.Frame{Type: rpc.FramePong, Job: f.Job, Payload: pl}) != nil {
				return
			}
		default:
			// Unknown or out-of-place frames (a second Hello, a stray
			// Welcome) are tolerated: forward compatibility within a
			// protocol version.
		}
	}
}

func (w *Worker) dropConn(c net.Conn) {
	w.mu.Lock()
	delete(w.conns, c)
	w.mu.Unlock()
	c.Close()
}

// tryAcquirePod admits a job if the pod cap allows, MaxPods-style: admission
// is a CAS loop, so two racing jobs can never both squeeze past the cap.
func (w *Worker) tryAcquirePod() bool {
	for {
		n := w.pods.Load()
		if n >= int64(w.opt.MaxPods) {
			return false
		}
		if w.pods.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

func (wc *wconn) register(id uint64, cancel context.CancelFunc) {
	wc.jmu.Lock()
	wc.jobs[id] = cancel
	wc.jmu.Unlock()
}

func (wc *wconn) unregister(id uint64) {
	wc.jmu.Lock()
	cancel := wc.jobs[id]
	delete(wc.jobs, id)
	wc.jmu.Unlock()
	if cancel != nil {
		cancel() // release the context's resources
	}
}

func (wc *wconn) cancel(id uint64) {
	wc.jmu.Lock()
	cancel := wc.jobs[id]
	wc.jmu.Unlock()
	if cancel != nil {
		cancel()
	}
}

func (wc *wconn) cancelAll() {
	wc.jmu.Lock()
	// CancelFunc never re-enters wc (job goroutines unregister later, and
	// block on jmu until we release it), so cancelling under the lock is
	// safe and cancellation order is irrelevant.
	for _, cancel := range wc.jobs {
		cancel()
	}
	wc.jobs = map[uint64]context.CancelFunc{}
	wc.jmu.Unlock()
}

// runJob executes one job end to end: decode, run the batch through the
// pool, stream one Row per prediction, ship the job's trace spans, JobDone.
// Any failure — decode error, replica panic, row count mismatch — becomes a
// JobErr instead of a dead worker.
func (w *Worker) runJob(ctx context.Context, wc *wconn, id uint64, payload []byte) {
	defer w.wg.Done()
	defer w.releasePod()
	defer wc.unregister(id)

	// The trace context rides at the front of the payload, so the job's root
	// span can only open after the decode; a decode failure is reported
	// without a span (there is no trace to attach it to).
	tc, graphs, err := rpc.DecodeJob(payload)
	span := w.opt.Tracer.StartRemote(tc, "fleet-worker-job", obs.String("worker", w.opt.ID))
	defer span.End() // idempotent safety net; the success path Ends earlier

	fail := func(code uint8, msg string) {
		switch code {
		case rpc.ErrCodeCancelled:
			w.met.jobsCancelled.Inc()
		default:
			w.met.jobsErr.Inc()
		}
		pl := rpc.AppendJobErr(nil, rpc.JobErr{Code: code, Message: msg})
		w.send(wc, rpc.Frame{Type: rpc.FrameJobErr, Job: id, Payload: pl})
	}

	if err != nil {
		fail(rpc.ErrCodeFailed, err.Error())
		return
	}
	span.Annotate(obs.Int("graphs", len(graphs)))

	// The pod is admitted; the pool claims a replica. MaxPods defaults to the
	// replica count, making that a non-blocking take, but a larger cap
	// oversubscribes the pool and waits there (or gives up on cancel).
	preds, err := w.pool.RunBatch(obs.ContextWithSpan(ctx, span), graphs)
	if errors.Is(err, serve.ErrReplicaPanic) {
		w.opt.Events.Log(slog.LevelError, span.Context().TraceID, "fleet-replica-panic",
			obs.String("worker", w.opt.ID), obs.String("panic", err.Error()))
		w.opt.Flight.Dump("replica-panic")
	}
	if ctx.Err() != nil {
		fail(rpc.ErrCodeCancelled, "fleet: job cancelled")
		return
	}
	if err != nil {
		fail(rpc.ErrCodeFailed, err.Error())
		return
	}

	sp := span.Child("stream")
	defer sp.End()
	for i, p := range preds {
		if ctx.Err() != nil {
			fail(rpc.ErrCodeCancelled, "fleet: job cancelled mid-stream")
			return
		}
		pl, err := rpc.AppendRow(nil, rpc.Row{Index: i, Class: p.Class, Logits: p.Logits})
		if err != nil {
			fail(rpc.ErrCodeFailed, err.Error())
			return
		}
		if w.send(wc, rpc.Frame{Type: rpc.FrameRow, Job: id, Payload: pl}) != nil {
			return // connection dead; coordinator re-runs the job elsewhere
		}
	}

	// End the whole span tree now, so Collected sees the complete job, and
	// ship it before JobDone — the coordinator's job state (which owns the
	// stitching) is discarded the moment JobDone lands. A tree the wire cap
	// refuses (a normal job's is 4 spans) is silently kept local: spans are
	// telemetry, never worth failing a served job over.
	sp.End()
	span.End()
	if recs := span.Collected(); len(recs) > 0 && len(recs) <= rpc.MaxSpansPerJob {
		if pl, err := rpc.AppendSpans(nil, recs); err == nil {
			if w.send(wc, rpc.Frame{Type: rpc.FrameSpans, Job: id, Payload: pl}) != nil {
				return
			}
		}
	}

	if w.send(wc, rpc.Frame{Type: rpc.FrameJobDone, Job: id, Payload: rpc.AppendJobDone(nil, rpc.JobDone{Rows: len(preds)})}) != nil {
		return
	}
	w.met.jobsOK.Inc()
	w.served.Add(1)
}

func (w *Worker) releasePod() { w.pods.Add(-1) }
