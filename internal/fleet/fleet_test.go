package fleet

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/fw"
	"repro/internal/fw/pygeo"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/rpc"
	"repro/internal/serve"
	"repro/internal/tensor"
)

const (
	testFeatures = 6
	testClasses  = 4
)

func ringGraph(n, width int) *graph.Graph {
	src := make([]int, n)
	dst := make([]int, n)
	for i := 0; i < n; i++ {
		src[i] = i
		dst[i] = (i + 1) % n
	}
	x := tensor.New(n, width)
	for i := range x.Data {
		x.Data[i] = float64((i*7+n)%11) / 11
	}
	return &graph.Graph{NumNodes: n, Src: src, Dst: dst, X: x}
}

// testModel builds the deterministic reference model every test worker
// serves: fixed seed, so every instance holds bit-identical weights.
func testModel() models.Model {
	return models.New("GCN", pygeo.New(), models.Config{
		Task: models.GraphClassification, In: testFeatures, Hidden: 8, Out: 8,
		Classes: testClasses, Layers: 2, Seed: 11,
	})
}

func testHash(t *testing.T) [32]byte {
	t.Helper()
	h, err := ModelHash(testModel().Params())
	if err != nil {
		t.Fatalf("ModelHash: %v", err)
	}
	return h
}

// slowReplica delays each forward pass — how the backpressure and drain
// tests hold pods busy long enough to observe saturation.
type slowReplica struct {
	serve.Replica
	delay time.Duration
}

func (r *slowReplica) Forward(b *fw.Batch) *tensor.Tensor {
	time.Sleep(r.delay)
	return r.Replica.Forward(b)
}

// startWorker launches a real worker on addr ("" for an ephemeral port) and
// returns it with its address. The worker serves nReplicas copies of the
// reference model, each slowed by delay.
func startWorker(t *testing.T, addr string, nReplicas int, delay time.Duration, opt WorkerOptions) (*Worker, string) {
	t.Helper()
	m := testModel()
	reps := make([]serve.Replica, nReplicas)
	for i := range reps {
		reps[i] = serve.NewModelReplica(m, device.Default())
		if delay > 0 {
			reps[i] = &slowReplica{Replica: reps[i], delay: delay}
		}
	}
	return serveWorker(t, addr, reps, opt)
}

// serveWorker launches a worker over reps on addr ("" for an ephemeral
// port), closed with the test.
func serveWorker(t *testing.T, addr string, reps []serve.Replica, opt WorkerOptions) (*Worker, string) {
	t.Helper()
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("listen %s: %v", addr, err)
	}
	w := NewWorker(reps, opt)
	go w.Serve(ln)
	t.Cleanup(func() { w.Close() })
	return w, ln.Addr().String()
}

// fastFleetOptions are manager options tuned for test time scales.
func fastFleetOptions(t *testing.T) Options {
	return Options{
		ExpectHash:       testHash(t),
		HealthInterval:   25 * time.Millisecond,
		MaxFailures:      3,
		DialTimeout:      2 * time.Second,
		SendTimeout:      2 * time.Second,
		RedialBackoff:    20 * time.Millisecond,
		RedialBackoffMax: 100 * time.Millisecond,
	}
}

func connectManager(t *testing.T, addrs []string, opt Options) *Manager {
	t.Helper()
	m := NewManager(addrs, opt)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.Connect(ctx); err != nil {
		t.Fatalf("Connect: %v", err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// metricValue digs one sample line out of a registry's exposition.
func metricValue(t *testing.T, r *obs.Registry, sample string) (float64, bool) {
	t.Helper()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	for _, line := range strings.Split(sb.String(), "\n") {
		if strings.HasPrefix(line, sample+" ") {
			var v float64
			if _, err := fmt.Sscanf(line[len(sample)+1:], "%g", &v); err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			return v, true
		}
	}
	return 0, false
}

// TestFleetBitIdentical pins the distributed serving contract: a fleet of
// workers answers every request with the exact float64 bit patterns the
// single-process server produces — the wire format adds no rounding.
func TestFleetBitIdentical(t *testing.T) {
	hash := testHash(t)
	_, a1 := startWorker(t, "", 2, 0, WorkerOptions{ModelHash: hash})
	_, a2 := startWorker(t, "", 2, 0, WorkerOptions{ModelHash: hash})
	mgr := connectManager(t, []string{a1, a2}, fastFleetOptions(t))

	single := serve.New([]serve.Replica{serve.NewModelReplica(testModel(), device.Default())},
		serve.Options{NumFeatures: testFeatures, Timeout: 30 * time.Second})
	defer single.Shutdown(context.Background())

	coord := serve.NewDispatch(mgr, mgr.TotalPods(), serve.Options{
		NumFeatures: testFeatures, MaxBatch: 4, BatchWindow: time.Millisecond, Timeout: 30 * time.Second,
	})
	defer coord.Shutdown(context.Background())

	for n := 3; n <= 12; n++ {
		want, err := single.Predict(context.Background(), ringGraph(n, testFeatures))
		if err != nil {
			t.Fatalf("single-process predict(%d): %v", n, err)
		}
		got, err := coord.Predict(context.Background(), ringGraph(n, testFeatures))
		if err != nil {
			t.Fatalf("fleet predict(%d): %v", n, err)
		}
		if got.Class != want.Class || len(got.Logits) != len(want.Logits) {
			t.Fatalf("graph %d: fleet answered class %d/%d logits, single-process %d/%d",
				n, got.Class, len(got.Logits), want.Class, len(want.Logits))
		}
		for i := range got.Logits {
			if math.Float64bits(got.Logits[i]) != math.Float64bits(want.Logits[i]) {
				t.Fatalf("graph %d logit %d: fleet %x, single-process %x — wire format broke bit identity",
					n, i, math.Float64bits(got.Logits[i]), math.Float64bits(want.Logits[i]))
			}
		}
	}
}

// deafWorker handshakes correctly and then ignores everything — the failure
// mode health checks exist for: a TCP peer that is alive but not serving.
func deafWorker(t *testing.T, hash [32]byte) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		// Exactly one connection: once evicted, redials find the port
		// closed, so the worker stays Dead and the counters stay put.
		c, err := ln.Accept()
		if err != nil {
			return
		}
		ln.Close()
		defer c.Close()
		f, err := rpc.ReadFrame(c)
		if err != nil || f.Type != rpc.FrameHello {
			return
		}
		pl, _ := rpc.AppendWelcome(nil, rpc.Welcome{
			Version: rpc.ProtocolVersion, MaxPods: 1, ModelHash: hash, WorkerID: "deaf",
		})
		rpc.WriteFrame(c, rpc.Frame{Type: rpc.FrameWelcome, Payload: pl})
		for { // read and drop everything; never pong
			if _, err := rpc.ReadFrame(c); err != nil {
				return
			}
		}
	}()
	return ln.Addr().String()
}

// TestFleetEviction drives the health-check state machine to eviction: a
// worker that stops answering pings goes Healthy → Suspect → Dead after
// MaxFailures misses, with the eviction and missed-check metrics moving.
func TestFleetEviction(t *testing.T) {
	opt := fastFleetOptions(t)
	reg := obs.NewRegistry()
	opt.Registry = reg
	addr := deafWorker(t, opt.ExpectHash)
	mgr := connectManager(t, []string{addr}, opt)

	// The first missed ping must mark the worker Suspect before eviction.
	sawSuspect := false
	waitFor(t, 10*time.Second, "worker eviction", func() bool {
		st, evictions, _ := mgr.Stats()
		if st[0].State == StateSuspect {
			sawSuspect = true
		}
		return st[0].State == StateDead && evictions == 1
	})
	if !sawSuspect {
		t.Error("worker evicted without passing through Suspect")
	}
	if missed, ok := metricValue(t, reg, `gnnlab_fleet_health_checks_total{outcome="missed"}`); !ok || missed < float64(opt.MaxFailures) {
		t.Errorf("missed health checks %g, want >= %d", missed, opt.MaxFailures)
	}
	if dead, ok := metricValue(t, reg, `gnnlab_fleet_workers{state="dead"}`); !ok || dead != 1 {
		t.Errorf("dead-worker gauge %g, want 1", dead)
	}
	if ev, ok := metricValue(t, reg, "gnnlab_fleet_evictions_total"); !ok || ev != 1 {
		t.Errorf("eviction counter %g, want 1", ev)
	}
}

// TestFleetRejoin covers crash recovery: kill a worker, watch it evicted,
// restart a fresh worker process on the same address, and watch the redial
// loop bring it back Healthy and serving — no coordinator intervention.
func TestFleetRejoin(t *testing.T) {
	opt := fastFleetOptions(t)
	reg := obs.NewRegistry()
	opt.Registry = reg
	w, addr := startWorker(t, "", 1, 0, WorkerOptions{ModelHash: opt.ExpectHash})
	mgr := connectManager(t, []string{addr}, opt)

	if _, err := mgr.RunBatch(context.Background(), []*graph.Graph{ringGraph(5, testFeatures)}); err != nil {
		t.Fatalf("RunBatch before crash: %v", err)
	}

	w.Close() // crash
	waitFor(t, 10*time.Second, "eviction after crash", func() bool {
		_, evictions, _ := mgr.Stats()
		return evictions >= 1
	})

	// Same address, fresh process: the hot re-join path.
	_, addr2 := startWorker(t, addr, 1, 0, WorkerOptions{ModelHash: opt.ExpectHash})
	if addr2 != addr {
		t.Fatalf("restarted worker bound %s, want %s", addr2, addr)
	}
	waitFor(t, 10*time.Second, "re-join", func() bool {
		st, _, rejoins := mgr.Stats()
		return rejoins == 1 && st[0].State == StateHealthy
	})
	if rj, ok := metricValue(t, reg, "gnnlab_fleet_rejoins_total"); !ok || rj != 1 {
		t.Errorf("rejoin counter %g, want 1", rj)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := mgr.RunBatch(ctx, []*graph.Graph{ringGraph(5, testFeatures)}); err != nil {
		t.Fatalf("RunBatch after re-join: %v", err)
	}
}

// TestFleetVersionSkew asserts both directions of version skew end in a
// clean, explanatory refusal — never a hang or a garbled stream.
func TestFleetVersionSkew(t *testing.T) {
	hash := testHash(t)

	// Old coordinator, new worker: the worker refuses the Hello by message.
	_, addr := startWorker(t, "", 1, 0, WorkerOptions{ModelHash: hash})
	opt := fastFleetOptions(t)
	opt.helloVersion = 99
	m := NewManager([]string{addr}, opt)
	err := m.Connect(context.Background())
	m.Close()
	if err == nil || !strings.Contains(err.Error(), "refused") || !strings.Contains(err.Error(), "protocol version 99") {
		t.Fatalf("skewed coordinator got %v, want a refusal naming protocol version 99", err)
	}

	// New worker, old coordinator (the other direction): the worker names
	// both versions in its refusal so the operator knows which side to roll.
	skewed := uint32(rpc.ProtocolVersion + 1)
	_, addr2 := startWorker(t, "", 1, 0, WorkerOptions{ModelHash: hash, forceVersion: skewed})
	m2 := NewManager([]string{addr2}, fastFleetOptions(t))
	err = m2.Connect(context.Background())
	m2.Close()
	want := fmt.Sprintf("worker speaks %d", skewed)
	if err == nil || !strings.Contains(err.Error(), "refused") || !strings.Contains(err.Error(), want) {
		t.Fatalf("coordinator connecting to a version-%d worker: %v, want a refusal naming both versions", skewed, err)
	}
}

// TestFleetHashMismatch: a worker serving different weights than the
// coordinator expects is refused at registration, by hash.
func TestFleetHashMismatch(t *testing.T) {
	var wrong [32]byte
	wrong[0] = 0xAB
	_, addr := startWorker(t, "", 1, 0, WorkerOptions{ModelHash: wrong})
	m := NewManager([]string{addr}, fastFleetOptions(t))
	defer m.Close()
	err := m.Connect(context.Background())
	if err == nil || !strings.Contains(err.Error(), "model hash") {
		t.Fatalf("Connect accepted a mismatched model hash: %v", err)
	}
}

// TestFleetBackpressure429 is the distributed half of the coordinator
// saturation contract: every pod on every worker busy plus a full queue
// means /predict answers 429 immediately — saturation is visible to
// callers, not hidden in an unbounded queue.
func TestFleetBackpressure429(t *testing.T) {
	hash := testHash(t)
	_, addr := startWorker(t, "", 1, 60*time.Millisecond, WorkerOptions{ModelHash: hash})
	mgr := connectManager(t, []string{addr}, fastFleetOptions(t))

	s := serve.NewDispatch(mgr, mgr.TotalPods(), serve.Options{
		NumFeatures: testFeatures, MaxBatch: 1, QueueDepth: 1, BatchWindow: -1,
		Timeout: 30 * time.Second,
	})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 12
	codes := make(chan int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/predict", "application/json",
				strings.NewReader(`{"num_nodes":5,"src":[0,1,2,3,4],"dst":[1,2,3,4,0],"x":[[0.5,0.5,0.5,0.5,0.5,0.5],[0.5,0.5,0.5,0.5,0.5,0.5],[0.5,0.5,0.5,0.5,0.5,0.5],[0.5,0.5,0.5,0.5,0.5,0.5],[0.5,0.5,0.5,0.5,0.5,0.5]]}`))
			if err != nil {
				t.Errorf("post: %v", err)
				return
			}
			resp.Body.Close()
			codes <- resp.StatusCode
		}()
	}
	wg.Wait()
	close(codes)
	var ok, throttled, other int
	for code := range codes {
		switch code {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			throttled++
		default:
			other++
		}
	}
	if other != 0 || ok == 0 {
		t.Fatalf("responses split ok=%d 429=%d other=%d", ok, throttled, other)
	}
	if throttled == 0 {
		t.Fatal("no 429 with one pod, queue depth 1 and a slow worker")
	}
}

// TestFleetCoordinatorDrain: coordinator shutdown with jobs streaming from
// workers must wait for their responses — every accepted HTTP request gets
// its 200, no ECONNRESET.
func TestFleetCoordinatorDrain(t *testing.T) {
	hash := testHash(t)
	_, addr := startWorker(t, "", 2, 50*time.Millisecond, WorkerOptions{ModelHash: hash})
	mgr := connectManager(t, []string{addr}, fastFleetOptions(t))

	s := serve.NewDispatch(mgr, mgr.TotalPods(), serve.Options{
		NumFeatures: testFeatures, MaxBatch: 2, QueueDepth: 32, BatchWindow: time.Millisecond,
		Timeout: 30 * time.Second,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 6
	type reply struct {
		code int
		err  error
	}
	replies := make(chan reply, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/predict", "application/json",
				strings.NewReader(`{"num_nodes":4,"src":[0,1,2,3],"dst":[1,2,3,0],"x":[[0.5,0.5,0.5,0.5,0.5,0.5],[0.5,0.5,0.5,0.5,0.5,0.5],[0.5,0.5,0.5,0.5,0.5,0.5],[0.5,0.5,0.5,0.5,0.5,0.5]]}`))
			if err != nil {
				replies <- reply{err: err}
				return
			}
			resp.Body.Close()
			replies <- reply{code: resp.StatusCode}
		}()
	}
	waitFor(t, 5*time.Second, "requests accepted", func() bool {
		return s.Stats().Accepted >= n
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	wg.Wait()
	close(replies)
	for r := range replies {
		if r.err != nil {
			t.Fatalf("accepted request saw a transport error during drain: %v", r.err)
		}
		if r.code != http.StatusOK {
			t.Fatalf("accepted request answered %d during drain, want 200", r.code)
		}
	}
	if st := s.Stats(); st.Responded != st.Accepted {
		t.Fatalf("drain left %d of %d accepted requests unanswered", st.Accepted-st.Responded, st.Accepted)
	}
}

// TestConnectHonorsCtxDeadline pins the ctx-propagation fix: the dial AND
// the handshake must inherit the caller's ctx deadline, not just the
// configured DialTimeout. The mute listener accepts the TCP connection but
// never sends a Welcome, so only the ctx-derived conn deadline can unblock
// the handshake read before the 2s DialTimeout would.
func TestConnectHonorsCtxDeadline(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var conns []net.Conn
	accepted := make(chan struct{})
	go func() {
		defer close(accepted)
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c) // hold open, never reply
			mu.Unlock()
		}
	}()
	defer func() {
		ln.Close()
		<-accepted
		mu.Lock()
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
	}()

	m := NewManager([]string{ln.Addr().String()}, fastFleetOptions(t))
	defer m.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = m.Connect(ctx)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("Connect succeeded against a mute worker")
	}
	if elapsed >= time.Second {
		t.Fatalf("Connect took %v; the 50ms ctx deadline did not bound the handshake", elapsed)
	}
}

// TestConnectCancelledCtx: an already-cancelled ctx aborts Connect before
// any dial happens.
func TestConnectCancelledCtx(t *testing.T) {
	m := NewManager([]string{"127.0.0.1:1"}, fastFleetOptions(t))
	defer m.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := m.Connect(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Connect(cancelled ctx) = %v, want context.Canceled", err)
	}
}
