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

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/rpc"
	"repro/internal/serve"
)

// State is a worker's position in the manager's health state machine.
//
//	Joining ──welcome──▶ Healthy ◀──pong──┐
//	    ▲                   │ missed pong │
//	    │ redial            ▼             │
//	  Dead ◀──MaxFailures── Suspect ──────┘
type State int

// Health states, in lifecycle order.
const (
	// StateJoining: dialing or handshaking, not yet accepting jobs.
	StateJoining State = iota
	// StateHealthy: connected and answering health checks; eligible for jobs.
	StateHealthy
	// StateSuspect: missed at least one health check but not yet evicted;
	// still eligible for jobs (the work either completes or fails over).
	StateSuspect
	// StateDead: evicted; a redial loop with exponential backoff owns it.
	StateDead
)

// String implements fmt.Stringer with the metric-label spelling.
func (s State) String() string {
	switch s {
	case StateJoining:
		return "joining"
	case StateHealthy:
		return "healthy"
	case StateSuspect:
		return "suspect"
	case StateDead:
		return "dead"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Sentinel errors the manager reports.
var (
	// ErrFleetClosed reports that the manager has shut down.
	ErrFleetClosed = errors.New("fleet: manager closed")
	// errWorkerDown marks a retryable transport-level job failure: the
	// worker died or was evicted mid-job. RunBatch fails the job over.
	errWorkerDown = errors.New("fleet: worker connection lost")
	// errWorkerBusy marks a retryable busy refusal (worker at pod cap).
	errWorkerBusy = errors.New("fleet: worker at pod cap")
)

// Options configures a Manager.
type Options struct {
	// ExpectHash, when nonzero, is the ModelHash every worker must report in
	// its Welcome; a mismatch fails the connection (and keeps redialing — a
	// worker restart with the right checkpoint heals it).
	ExpectHash [32]byte
	// HealthInterval is the ping period per worker (default 1s).
	HealthInterval time.Duration
	// MaxFailures is how many consecutive missed health checks evict a
	// worker (default 3).
	MaxFailures int
	// DialTimeout bounds each dial and handshake (default 5s).
	DialTimeout time.Duration
	// SendTimeout bounds every frame write; a worker that stops reading is
	// torn down rather than wedging the coordinator (default 5s).
	SendTimeout time.Duration
	// RedialBackoff is the first wait before re-dialing an evicted worker;
	// it doubles per failure up to RedialBackoffMax (defaults 100ms / 5s).
	RedialBackoff    time.Duration
	RedialBackoffMax time.Duration
	// Registry receives gnnlab_fleet_* metrics; nil creates a private
	// registry. One registry backs at most one manager.
	Registry *obs.Registry
	// Tracer, when non-nil, records one span per dispatched job — and
	// stitches each worker's shipped span records under it, one Chrome-trace
	// pid lane per worker, so a merged WriteChromeTrace shows dispatch, wire
	// time and worker-side execution as one nested tree.
	Tracer *obs.Tracer
	// Events, when non-nil, receives fleet lifecycle events (worker join,
	// eviction, re-join).
	Events *obs.EventLog
	// Flight, when non-nil, captures a flight-recorder dump on every worker
	// eviction — the forensic record of what the coordinator saw leading up
	// to it.
	Flight *obs.FlightRecorder
	// Predictor, when non-nil, is consulted on every dispatched job: the
	// predicted forward latency is attached to the job's span and exported as
	// gnnlab_costmodel_fleet_* metrics, so predicted-vs-actual drift is
	// visible per worker dispatch. (Admission decisions happen upstream in
	// the serve coalescer; the fleet only observes.)
	Predictor serve.LatencyPredictor

	// helloVersion, when nonzero, overrides the protocol version the
	// manager announces — the version-skew test hook.
	helloVersion uint32
}

func (o *Options) defaults() {
	if o.HealthInterval <= 0 {
		o.HealthInterval = time.Second
	}
	if o.MaxFailures <= 0 {
		o.MaxFailures = 3
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.SendTimeout <= 0 {
		o.SendTimeout = 5 * time.Second
	}
	if o.RedialBackoff <= 0 {
		o.RedialBackoff = 100 * time.Millisecond
	}
	if o.RedialBackoffMax <= 0 {
		o.RedialBackoffMax = 5 * time.Second
	}
	if o.Registry == nil {
		o.Registry = obs.NewRegistry()
	}
}

// link is one live connection epoch to a worker. Evicting a worker discards
// its whole link — in-flight bookkeeping, pod counts and all — so state from
// a dead connection can never leak into the next one.
type link struct {
	conn    net.Conn
	id      string // worker-reported ID from the Welcome
	maxPods int

	wmu sync.Mutex // serializes frame writes

	// pong holds the highest health-check sequence answered; written by the
	// reader, read by the health loop.
	pong atomic.Uint64

	// Guarded by the owning remote's mu:
	pods     int // jobs in flight on this link
	inflight map[uint64]*job
}

// remote is one configured worker address across all its connection epochs.
type remote struct {
	addr string
	// idx is the worker's position in the configured address list; its
	// stitched spans render on Chrome-trace pid workerPidBase+idx, stable
	// across restarts of the worker process.
	idx int

	mu       sync.Mutex
	state    State
	link     *link // nil unless state is Healthy or Suspect
	failures int   // consecutive missed health checks
}

// workerPidBase is the Chrome-trace pid of the first worker's lane; the
// coordinator itself (and its kernel tracks) own pid 1.
const workerPidBase = 2

// job is one dispatched group awaiting its streamed response.
type job struct {
	rows []serve.Prediction
	got  []bool
	n    int
	done chan error // buffered(1); exactly one completion wins
	// span is the coordinator-side span the worker's shipped records stitch
	// under; nil when the manager is not tracing.
	span *obs.Span
}

// Manager owns the coordinator's side of the fleet: connections, health,
// eviction, re-join, and job dispatch with failover. It implements
// serve.Runner, so plugging a fleet into the server is
// serve.NewDispatch(manager, concurrency, opt).
type Manager struct {
	opt     Options
	workers []*remote

	jobSeq atomic.Uint64
	rr     atomic.Uint64 // round-robin cursor for acquire
	stop   chan struct{}
	wake   chan struct{}
	wg     sync.WaitGroup

	// life is cancelled by Close; it bounds dials made on the manager's
	// behalf outside any caller context (the redial loop), so a closing
	// fleet never waits out a dial timeout against a dead worker.
	life     context.Context
	lifeStop context.CancelFunc

	// lifeMu serializes lifecycle transitions (Close vs evict-spawned
	// redials vs redial-spawned connections): a link may only be installed
	// and goroutines only added to wg while the manager is not closed, so
	// Close's Wait can never race an Add and can never miss a link.
	lifeMu sync.Mutex
	closed bool

	met managerMetrics
}

type managerMetrics struct {
	evictions  *obs.Counter
	rejoins    *obs.Counter
	healthOK   *obs.Counter
	healthFail *obs.Counter
	jobsOK     *obs.Counter
	jobsRetry  *obs.Counter
	jobsErr    *obs.Counter
	// Cost-model consult instruments; populated only when a Predictor is set.
	cmPredictions *obs.Counter
	cmPredicted   *obs.Histogram
}

// NewManager builds a manager over the given worker addresses. Call Connect
// to establish the fleet before dispatching.
func NewManager(addrs []string, opt Options) *Manager {
	if len(addrs) == 0 {
		panic("fleet: NewManager requires at least one worker address")
	}
	opt.defaults()
	m := &Manager{
		opt:  opt,
		stop: make(chan struct{}),
		wake: make(chan struct{}, 1),
	}
	m.life, m.lifeStop = context.WithCancel(context.Background())
	for i, a := range addrs {
		m.workers = append(m.workers, &remote{addr: a, idx: i, state: StateJoining})
	}
	m.registerMetrics()
	return m
}

func (m *Manager) registerMetrics() {
	r := m.opt.Registry
	m.met = managerMetrics{
		evictions: r.Counter("gnnlab_fleet_evictions_total",
			"Workers evicted after failed health checks or connection errors."),
		rejoins: r.Counter("gnnlab_fleet_rejoins_total",
			"Workers re-joined after eviction."),
	}
	health := r.CounterVec("gnnlab_fleet_health_checks_total",
		"Health-check probes, by outcome.", "outcome")
	m.met.healthOK = health.With("ok")
	m.met.healthFail = health.With("missed")
	jobs := r.CounterVec("gnnlab_fleet_jobs_total",
		"Jobs dispatched to the fleet, by outcome.", "outcome")
	m.met.jobsOK = jobs.With("ok")
	m.met.jobsRetry = jobs.With("retry")
	m.met.jobsErr = jobs.With("error")

	workers := r.GaugeVec("gnnlab_fleet_workers",
		"Configured workers in each health state.", "state")
	for _, st := range []State{StateJoining, StateHealthy, StateSuspect, StateDead} {
		st := st
		workers.Func(func() float64 { return float64(m.countState(st)) }, st.String())
	}
	r.GaugeFunc("gnnlab_fleet_pods_inflight",
		"Jobs currently in flight across the fleet.",
		func() float64 { return float64(m.podsInFlight()) })
	if m.opt.Predictor != nil {
		m.met.cmPredictions = r.Counter("gnnlab_costmodel_fleet_predictions_total",
			"Cost-model latency predictions issued on the fleet dispatch path.")
		m.met.cmPredicted = r.Histogram("gnnlab_costmodel_fleet_predicted_seconds",
			"Predicted forward latency per dispatched fleet job.",
			1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1)
	}
}

func (m *Manager) countState(st State) int {
	n := 0
	for _, r := range m.workers {
		r.mu.Lock()
		if r.state == st {
			n++
		}
		r.mu.Unlock()
	}
	return n
}

func (m *Manager) podsInFlight() int {
	n := 0
	for _, r := range m.workers {
		r.mu.Lock()
		if r.link != nil {
			n += r.link.pods
		}
		r.mu.Unlock()
	}
	return n
}

// Connect dials and handshakes every configured worker. On any failure the
// manager shuts down and the error is returned — a fleet that cannot fully
// assemble at startup is a configuration problem, not something to limp past
// (crash recovery is the redial loop's job, after a clean start).
func (m *Manager) Connect(ctx context.Context) error {
	for _, r := range m.workers {
		if err := ctx.Err(); err != nil {
			m.Close()
			return err
		}
		if err := m.connectWorker(ctx, r); err != nil {
			m.Close()
			return err
		}
	}
	return nil
}

// connectWorker dials, handshakes and installs a fresh link for r, then
// starts its reader and health loop. The ctx bounds the dial: cancelling it
// abandons the connection attempt immediately instead of waiting out the
// dial timeout.
func (m *Manager) connectWorker(ctx context.Context, r *remote) error {
	dialer := &net.Dialer{Timeout: m.opt.DialTimeout}
	conn, err := dialer.DialContext(ctx, "tcp", r.addr)
	if err != nil {
		return fmt.Errorf("fleet: dial %s: %w", r.addr, err)
	}
	w, err := m.handshake(ctx, conn)
	if err != nil {
		conn.Close()
		return fmt.Errorf("fleet: worker %s: %w", r.addr, err)
	}
	l := &link{
		conn:     conn,
		id:       w.WorkerID,
		maxPods:  int(w.MaxPods),
		inflight: map[uint64]*job{},
	}
	m.lifeMu.Lock()
	if m.closed {
		m.lifeMu.Unlock()
		conn.Close()
		return ErrFleetClosed
	}
	r.mu.Lock()
	r.link = l
	r.state = StateHealthy
	r.failures = 0
	r.mu.Unlock()
	m.wg.Add(2)
	m.lifeMu.Unlock()
	go m.reader(r, l)
	go m.healthLoop(r, l)
	m.signal()
	m.opt.Events.Info("fleet-worker-join",
		obs.String("addr", r.addr), obs.String("worker", w.WorkerID),
		obs.Int("pods", int(w.MaxPods)))
	return nil
}

// handshake runs the client side of the registration protocol on a fresh
// connection: Hello out, Welcome (or Refuse) back, then version, pod budget
// and model hash are verified. The frame reads are bounded by a conn
// deadline — the dial timeout, or the ctx's deadline when that lands
// sooner, so a caller-imposed budget covers the handshake too.
func (m *Manager) handshake(ctx context.Context, conn net.Conn) (rpc.Welcome, error) {
	hv := uint32(rpc.ProtocolVersion)
	if m.opt.helloVersion != 0 {
		hv = m.opt.helloVersion
	}
	deadline := time.Now().Add(m.opt.DialTimeout)
	if dl, ok := ctx.Deadline(); ok && dl.Before(deadline) {
		deadline = dl
	}
	conn.SetDeadline(deadline)
	defer conn.SetDeadline(time.Time{})
	hello := rpc.Frame{Type: rpc.FrameHello, Payload: rpc.AppendHello(nil, rpc.Hello{Version: hv})}
	if err := rpc.WriteFrame(conn, hello); err != nil {
		return rpc.Welcome{}, fmt.Errorf("send hello: %w", err)
	}
	//gnnvet:allow ctx-propagation -- read is bounded by the conn deadline derived from ctx above
	f, err := rpc.ReadFrame(conn)
	if err != nil {
		return rpc.Welcome{}, fmt.Errorf("read handshake reply: %w", err)
	}
	switch f.Type {
	case rpc.FrameRefuse:
		ref, err := rpc.DecodeRefuse(f.Payload)
		if err != nil {
			return rpc.Welcome{}, fmt.Errorf("bad refuse: %w", err)
		}
		return rpc.Welcome{}, fmt.Errorf("refused: %s", ref.Message)
	case rpc.FrameWelcome:
		w, err := rpc.DecodeWelcome(f.Payload)
		if err != nil {
			return rpc.Welcome{}, fmt.Errorf("bad welcome: %w", err)
		}
		if w.Version != rpc.ProtocolVersion {
			return rpc.Welcome{}, fmt.Errorf("protocol version %d, coordinator speaks %d", w.Version, rpc.ProtocolVersion)
		}
		if w.MaxPods == 0 {
			return rpc.Welcome{}, errors.New("welcome advertises zero pods")
		}
		var zero [32]byte
		if m.opt.ExpectHash != zero && w.ModelHash != m.opt.ExpectHash {
			return rpc.Welcome{}, fmt.Errorf("model hash %s, coordinator expects %s",
				HashString(w.ModelHash), HashString(m.opt.ExpectHash))
		}
		return w, nil
	default:
		return rpc.Welcome{}, fmt.Errorf("unexpected frame type %d in handshake", f.Type)
	}
}

// Close tears the whole fleet down: every link is closed (failing its
// in-flight jobs), redial loops stop, and background goroutines are joined.
func (m *Manager) Close() error {
	m.lifeMu.Lock()
	if m.closed {
		m.lifeMu.Unlock()
		m.wg.Wait()
		return nil
	}
	m.closed = true
	close(m.stop)
	m.lifeStop()
	m.lifeMu.Unlock()
	for _, r := range m.workers {
		r.mu.Lock()
		l := r.link
		r.mu.Unlock()
		if l != nil {
			m.teardown(r, l)
		}
	}
	m.wg.Wait()
	return nil
}

// TotalPods sums the advertised pod budgets of currently connected workers —
// the natural dispatch concurrency for serve.NewDispatch.
func (m *Manager) TotalPods() int {
	n := 0
	for _, r := range m.workers {
		r.mu.Lock()
		if r.link != nil {
			n += r.link.maxPods
		}
		r.mu.Unlock()
	}
	return n
}

// WorkerStatus is one worker's externally visible health, for Stats.
type WorkerStatus struct {
	Addr    string
	ID      string // empty unless connected
	State   State
	Pods    int // jobs in flight
	MaxPods int // advertised budget (0 unless connected)
}

// Stats reports per-worker health in configuration order, plus the
// lifetime eviction and re-join counts.
func (m *Manager) Stats() ([]WorkerStatus, int64, int64) {
	out := make([]WorkerStatus, len(m.workers))
	for i, r := range m.workers {
		r.mu.Lock()
		ws := WorkerStatus{Addr: r.addr, State: r.state}
		if r.link != nil {
			ws.ID = r.link.id
			ws.Pods = r.link.pods
			ws.MaxPods = r.link.maxPods
		}
		out[i] = ws
		r.mu.Unlock()
	}
	return out, int64(m.met.evictions.Value()), int64(m.met.rejoins.Value())
}

// signal wakes one acquire waiter (capacity may have appeared).
func (m *Manager) signal() {
	select {
	case m.wake <- struct{}{}:
	default:
	}
}

// send writes one frame on a link under its write lock with the send
// timeout. A write error tears the link down (cancel-on-error): its jobs
// fail over rather than waiting on a wedged connection.
func (m *Manager) send(r *remote, l *link, f rpc.Frame) error {
	l.wmu.Lock()
	l.conn.SetWriteDeadline(time.Now().Add(m.opt.SendTimeout))
	err := rpc.WriteFrame(l.conn, f)
	l.wmu.Unlock()
	if err != nil {
		m.evict(r, l)
	}
	return err
}

// teardown retires a link: in-flight jobs fail with errWorkerDown (their
// RunBatch attempts retry elsewhere), the connection closes, and the remote
// goes Dead. Idempotent per link — only the first caller acts.
func (m *Manager) teardown(r *remote, l *link) bool {
	r.mu.Lock()
	if r.link != l {
		r.mu.Unlock()
		return false
	}
	r.link = nil
	r.state = StateDead
	jobs := l.inflight
	l.inflight = map[uint64]*job{}
	l.pods = 0
	r.mu.Unlock()
	l.conn.Close()
	for _, j := range jobs {
		j.done <- errWorkerDown
	}
	m.signal()
	return true
}

// evict is teardown plus the crash-recovery follow-through: count the
// eviction and start the redial loop (unless the manager itself is closing).
func (m *Manager) evict(r *remote, l *link) {
	if !m.teardown(r, l) {
		return
	}
	m.lifeMu.Lock()
	closing := m.closed
	if !closing {
		m.met.evictions.Inc()
		m.wg.Add(1)
		go m.redial(r)
	}
	m.lifeMu.Unlock()
	if !closing {
		// The forensic record of what the coordinator saw leading up to the
		// eviction: recent spans, lifecycle events and a metrics snapshot.
		m.opt.Events.Log(slog.LevelWarn, 0, "fleet-worker-evicted",
			obs.String("addr", r.addr))
		m.opt.Flight.Dump("eviction")
	}
}

// redial re-establishes an evicted worker with exponential backoff. It runs
// until the worker is back (counted as a re-join) or the manager closes; a
// worker restarted with a mismatched version or checkpoint keeps being
// refused and keeps being retried, so fixing the worker heals the fleet
// without coordinator intervention.
func (m *Manager) redial(r *remote) {
	defer m.wg.Done()
	backoff := m.opt.RedialBackoff
	for {
		select {
		case <-m.stop:
			return
		case <-time.After(backoff):
		}
		if err := m.connectWorker(m.life, r); err == nil {
			m.met.rejoins.Inc()
			m.opt.Events.Info("fleet-worker-rejoin", obs.String("addr", r.addr))
			return
		}
		backoff *= 2
		if backoff > m.opt.RedialBackoffMax {
			backoff = m.opt.RedialBackoffMax
		}
	}
}

// reader drains one link's frames: streamed rows into their jobs, job
// completions, pongs into the health loop's counter. A read error — worker
// crash, eviction, Close — ends the link.
func (m *Manager) reader(r *remote, l *link) {
	defer m.wg.Done()
	for {
		f, err := rpc.ReadFrame(l.conn)
		if err != nil {
			m.evict(r, l)
			return
		}
		switch f.Type {
		case rpc.FrameRow:
			row, err := rpc.DecodeRow(f.Payload)
			if err != nil {
				m.evict(r, l)
				return
			}
			r.mu.Lock()
			if j := l.inflight[f.Job]; j != nil && row.Index >= 0 && row.Index < j.n {
				j.rows[row.Index] = serve.Prediction{Class: row.Class, Logits: row.Logits}
				j.got[row.Index] = true
			}
			r.mu.Unlock()
		case rpc.FrameJobDone:
			jd, derr := rpc.DecodeJobDone(f.Payload)
			if derr != nil {
				m.evict(r, l)
				return
			}
			if j := m.takeJob(r, l, f.Job); j != nil {
				err := error(nil)
				for i := range j.got {
					if !j.got[i] {
						err = fmt.Errorf("fleet: worker %s finished a job missing row %d of %d", r.addr, i, j.n)
						break
					}
				}
				if err == nil && jd.Rows != j.n {
					err = fmt.Errorf("fleet: worker %s finished a job of %d rows claiming %d", r.addr, j.n, jd.Rows)
				}
				j.done <- err
			}
		case rpc.FrameJobErr:
			je, derr := rpc.DecodeJobErr(f.Payload)
			if derr != nil {
				m.evict(r, l)
				return
			}
			if j := m.takeJob(r, l, f.Job); j != nil {
				switch je.Code {
				case rpc.ErrCodeBusy:
					j.done <- errWorkerBusy
				case rpc.ErrCodeCancelled:
					j.done <- errWorkerDown // cancelled remotely: retryable
				default:
					j.done <- fmt.Errorf("fleet: worker %s: %s", r.addr, je.Message)
				}
			}
		case rpc.FrameSpans:
			recs, derr := rpc.DecodeSpans(f.Payload)
			if derr != nil {
				m.evict(r, l)
				return
			}
			// Spans arrive before the job's JobDone on this same goroutine,
			// so the job (and its coordinator-side span) is still registered.
			r.mu.Lock()
			j := l.inflight[f.Job]
			r.mu.Unlock()
			if j != nil && j.span != nil {
				j.span.ImportRemote(workerPidBase+r.idx, recs)
			}
		case rpc.FramePong:
			if _, derr := rpc.DecodePong(f.Payload); derr != nil {
				m.evict(r, l)
				return
			}
			// The sequence number rides the job field; record the highest.
			for {
				cur := l.pong.Load()
				if f.Job <= cur || l.pong.CompareAndSwap(cur, f.Job) {
					break
				}
			}
			r.mu.Lock()
			if r.link == l {
				r.failures = 0
				if r.state == StateSuspect {
					r.state = StateHealthy
				}
			}
			r.mu.Unlock()
		default:
			// Tolerated for forward compatibility within a version.
		}
	}
}

// takeJob removes a job from a link's in-flight set and releases its pod.
// Returns nil if the job is gone (cancelled locally or the link was
// already torn down), in which case the caller must not complete it.
func (m *Manager) takeJob(r *remote, l *link, id uint64) *job {
	r.mu.Lock()
	j := l.inflight[id]
	if j != nil {
		delete(l.inflight, id)
		l.pods--
	}
	r.mu.Unlock()
	if j != nil {
		m.signal()
	}
	return j
}

// healthLoop pings one link every HealthInterval and verifies the previous
// ping was answered before sending the next. MaxFailures consecutive unpaid
// pings evict the worker; any pong resets the count (and Suspect → Healthy
// happens in the reader, where the pong arrives).
func (m *Manager) healthLoop(r *remote, l *link) {
	defer m.wg.Done()
	ticker := time.NewTicker(m.opt.HealthInterval)
	defer ticker.Stop()
	var sent uint64
	for {
		select {
		case <-m.stop:
			return
		case <-ticker.C:
		}
		r.mu.Lock()
		gone := r.link != l
		r.mu.Unlock()
		if gone {
			return
		}
		if sent > 0 {
			if l.pong.Load() < sent {
				m.met.healthFail.Inc()
				evict := false
				r.mu.Lock()
				if r.link == l {
					r.failures++
					if r.state == StateHealthy {
						r.state = StateSuspect
					}
					evict = r.failures >= m.opt.MaxFailures
				}
				r.mu.Unlock()
				if evict {
					m.evict(r, l)
					return
				}
			} else {
				m.met.healthOK.Inc()
			}
		}
		sent++
		if m.send(r, l, rpc.Frame{Type: rpc.FramePing, Job: sent}) != nil {
			return // send already evicted the link
		}
	}
}

// acquire claims one pod on a healthy (or suspect) worker, round-robin
// across the fleet, blocking until capacity appears or ctx expires. The
// claimed link is returned alongside its remote; release happens through
// takeJob or forget.
func (m *Manager) acquire(ctx context.Context) (*remote, *link, error) {
	for {
		start := int(m.rr.Add(1))
		for k := range m.workers {
			r := m.workers[(start+k)%len(m.workers)]
			r.mu.Lock()
			if l := r.link; l != nil && l.pods < l.maxPods {
				l.pods++
				r.mu.Unlock()
				return r, l, nil
			}
			r.mu.Unlock()
		}
		select {
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		case <-m.stop:
			return nil, nil, ErrFleetClosed
		case <-m.wake:
		case <-time.After(10 * time.Millisecond):
			// Periodic re-scan: a re-join or pod release can race the
			// wake signal; the timer bounds the window.
		}
	}
}

// forget abandons a job this side started: if still in flight, it is
// removed and its pod released (the worker's late rows will find nothing).
func (m *Manager) forget(r *remote, l *link, id uint64) {
	r.mu.Lock()
	if _, ok := l.inflight[id]; ok {
		delete(l.inflight, id)
		l.pods--
	}
	r.mu.Unlock()
	m.signal()
}

// runJob runs one group on one specific worker: register, send, await the
// streamed response. Retryable failures come back as errWorkerDown or
// errWorkerBusy; anything else is authoritative.
func (m *Manager) runJob(ctx context.Context, r *remote, l *link, graphs []*graph.Graph) ([]serve.Prediction, error) {
	id := m.jobSeq.Add(1)
	// The trace id is derived deterministically from the job id, so a fixed
	// dispatch order yields a byte-identical merged trace — and the worker,
	// deriving nothing, simply inherits the context off the wire.
	tc := obs.TraceContext{TraceID: obs.TraceIDForJob(id)}
	attrs := []obs.Attr{obs.String("worker", r.addr), obs.Int("graphs", len(graphs))}
	if m.opt.Predictor != nil {
		pred := m.opt.Predictor.PredictBatch(graphs)
		m.met.cmPredictions.Inc()
		m.met.cmPredicted.Observe(pred.Seconds())
		attrs = append(attrs, obs.String("predicted", pred.String()))
	}
	span := m.opt.Tracer.StartRemote(tc, "fleet-job", attrs...)
	defer span.End()
	j := &job{
		rows: make([]serve.Prediction, len(graphs)),
		got:  make([]bool, len(graphs)),
		n:    len(graphs),
		done: make(chan error, 1),
		span: span,
	}
	r.mu.Lock()
	if r.link != l {
		// Torn down between acquire and here; the pod died with the link.
		r.mu.Unlock()
		return nil, errWorkerDown
	}
	l.inflight[id] = j
	r.mu.Unlock()

	payload, err := rpc.AppendJob(nil, span.Context(), graphs)
	if err != nil {
		// Unencodable group: authoritative, retrying cannot help.
		m.forget(r, l, id)
		return nil, fmt.Errorf("fleet: encode job: %w", err)
	}
	if m.send(r, l, rpc.Frame{Type: rpc.FrameJob, Job: id, Payload: payload}) != nil {
		// send evicted the link; teardown completed j via done.
		return nil, errWorkerDown
	}
	select {
	case err := <-j.done:
		if err != nil {
			return nil, err
		}
		return j.rows, nil
	case <-ctx.Done():
		// Best-effort remote cancel; the local job is forgotten either way.
		m.send(r, l, rpc.Frame{Type: rpc.FrameCancel, Job: id})
		m.forget(r, l, id)
		return nil, ctx.Err()
	}
}

// retryable reports whether a job failure is worth failing over: transport
// loss and pod-cap refusals are; worker-reported execution errors are
// authoritative (a poisonous batch would fail everywhere).
func retryable(err error) bool {
	return errors.Is(err, errWorkerDown) || errors.Is(err, errWorkerBusy)
}

// RunBatch implements serve.Runner: dispatch the group to a worker with
// capacity, and on retryable failure (crash, eviction, pod-cap race) fail it
// over to another worker until ctx expires. An accepted request is therefore
// only ever dropped when its own deadline passes — worker deaths are the
// fleet's problem, not the caller's.
func (m *Manager) RunBatch(ctx context.Context, graphs []*graph.Graph) ([]serve.Prediction, error) {
	for attempt := 0; ; attempt++ {
		r, l, err := m.acquire(ctx)
		if err != nil {
			return nil, err
		}
		preds, err := m.runJob(ctx, r, l, graphs)
		if err == nil {
			m.met.jobsOK.Inc()
			return preds, nil
		}
		if !retryable(err) || ctx.Err() != nil {
			m.met.jobsErr.Inc()
			return nil, err
		}
		m.met.jobsRetry.Inc()
		if errors.Is(err, errWorkerBusy) {
			// A busy refusal means our pod accounting raced the worker's;
			// back off a beat instead of hammering it.
			select {
			case <-ctx.Done():
				m.met.jobsErr.Inc()
				return nil, ctx.Err()
			case <-time.After(2 * time.Millisecond):
			}
		}
	}
}
