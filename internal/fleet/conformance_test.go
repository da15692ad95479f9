package fleet

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/fw"
	"repro/internal/fw/dglb"
	"repro/internal/fw/pygeo"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/rpc"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// The fakes behind the conformance table: a backend and a replica whose
// faults are armed and disarmed while the server under test keeps running.

const scriptedClasses = 5

// scriptedLogits is the row a scriptedReplica emits for an n-node graph:
// irrational values, so bit-equality across execution modes means something.
func scriptedLogits(n int) []float64 {
	row := make([]float64, scriptedClasses)
	for j := range row {
		row[j] = math.Sin(float64(n*31 + j*7))
	}
	return row
}

// scriptedBackend collates through PyG unless armed to panic.
type scriptedBackend struct {
	fw.Backend
	poisoned atomic.Bool
}

func (b *scriptedBackend) Batch(graphs []*graph.Graph, dev *device.Device) *fw.Batch {
	if b.poisoned.Load() {
		panic("scripted: collation poisoned")
	}
	return b.Backend.Batch(graphs, dev)
}

const (
	faultNone int32 = iota
	faultExtraRow
	faultPanic
	faultBlock
)

type scriptedReplica struct {
	be      *scriptedBackend
	dev     *device.Device
	fault   atomic.Int32
	entered chan struct{} // one token per blocked Forward
	release chan struct{} // closed to let blocked Forwards go
}

func (r *scriptedReplica) Backend() fw.Backend    { return r.be }
func (r *scriptedReplica) Device() *device.Device { return r.dev }

func (r *scriptedReplica) Forward(b *fw.Batch) *tensor.Tensor {
	rows := b.NumGraphs
	switch r.fault.Load() {
	case faultPanic:
		panic("scripted: forward poisoned")
	case faultExtraRow:
		rows++
	case faultBlock:
		r.entered <- struct{}{}
		<-r.release
	}
	t := tensor.New(rows, scriptedClasses)
	for i := 0; i < b.NumGraphs; i++ {
		copy(t.Row(i), scriptedLogits(b.NodeOffsets[i+1]-b.NodeOffsets[i]))
	}
	return t
}

// batchPath is one way of reaching serve.Pool.RunBatch, behind the same
// *serve.Server front.
type batchPath struct {
	srv  *serve.Server
	be   *scriptedBackend
	reps []*scriptedReplica
	// Fleet mode only: the worker's registry and id, for the pod gauge.
	workerReg *obs.Registry
	workerID  string
}

func (p *batchPath) arm(fault int32) {
	for _, r := range p.reps {
		r.fault.Store(fault)
	}
}

func (p *batchPath) predict(ctx context.Context, n int) (serve.Prediction, error) {
	return p.srv.Predict(ctx, ringGraph(n, testFeatures))
}

const conformanceReplicas = 2

// batchPaths are the three deployments the table runs through. Each offers
// one dispatch slot more than it has replicas where the deployment allows it
// (a single-process server binds its concurrency to the replica count), so a
// group can be left waiting for a replica.
var batchPaths = []struct {
	name  string
	start func(t *testing.T, p *batchPath, reps []serve.Replica, opt serve.Options)
}{
	{"single-process", func(t *testing.T, p *batchPath, reps []serve.Replica, opt serve.Options) {
		p.srv = serve.New(reps, opt)
	}},
	{"dispatch-over-pool", func(t *testing.T, p *batchPath, reps []serve.Replica, opt serve.Options) {
		p.srv = serve.NewDispatch(serve.NewPool(reps), len(reps)+1, opt)
	}},
	{"fleet-worker", func(t *testing.T, p *batchPath, reps []serve.Replica, opt serve.Options) {
		p.workerReg, p.workerID = obs.NewRegistry(), "conformance"
		_, addr := serveWorker(t, "", reps, WorkerOptions{ID: p.workerID, MaxPods: len(reps) + 1, Registry: p.workerReg})
		fo := fastFleetOptions(t)
		fo.ExpectHash = [32]byte{}
		mgr := connectManager(t, []string{addr}, fo)
		p.srv = serve.NewDispatch(mgr, mgr.TotalPods(), opt)
	}},
}

func startBatchPath(t *testing.T, mode int) *batchPath {
	t.Helper()
	p := &batchPath{be: &scriptedBackend{Backend: pygeo.New()}}
	entered, release := make(chan struct{}, 16), make(chan struct{})
	reps := make([]serve.Replica, conformanceReplicas)
	for i := range reps {
		r := &scriptedReplica{be: p.be, dev: device.New(fmt.Sprintf("cuda:%d", i), device.RTX2080Ti()),
			entered: entered, release: release}
		p.reps = append(p.reps, r)
		reps[i] = r
	}
	batchPaths[mode].start(t, p, reps, serve.Options{
		NumFeatures: testFeatures, MaxBatch: 4, BatchWindow: 5 * time.Millisecond, Timeout: 30 * time.Second,
	})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := p.srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return p
}

// burst sends one request per node count concurrently and returns the
// answers in the same order.
func (p *batchPath) burst(nodes []int) ([]serve.Prediction, []error) {
	preds, errs := make([]serve.Prediction, len(nodes)), make([]error, len(nodes))
	var wg sync.WaitGroup
	for i, n := range nodes {
		wg.Add(1)
		go func(i, n int) {
			defer wg.Done()
			preds[i], errs[i] = p.predict(context.Background(), n)
		}(i, n)
	}
	wg.Wait()
	return preds, errs
}

// checkHealthy asserts a burst is answered with exactly the scripted logits.
func (p *batchPath) checkHealthy(t *testing.T) {
	t.Helper()
	nodes := []int{3, 4, 5, 6, 7, 8}
	preds, errs := p.burst(nodes)
	for i, n := range nodes {
		if errs[i] != nil {
			t.Fatalf("healthy request (%d nodes): %v", n, errs[i])
		}
		want := scriptedLogits(n)
		if len(preds[i].Logits) != len(want) {
			t.Fatalf("graph %d: %d logits, want %d", n, len(preds[i].Logits), len(want))
		}
		best := 0
		for j := range want {
			if math.Float64bits(preds[i].Logits[j]) != math.Float64bits(want[j]) {
				t.Fatalf("graph %d logit %d: %x, want %x", n, j,
					math.Float64bits(preds[i].Logits[j]), math.Float64bits(want[j]))
			}
			if want[j] > want[best] {
				best = j
			}
		}
		if preds[i].Class != best {
			t.Fatalf("graph %d: class %d, want %d", n, preds[i].Class, best)
		}
	}
}

// faulted returns a scenario that switches a fault on, requires every request
// of a burst to fail with wantErr in its message, switches it off again, and
// requires the replicas' device accounting to be back at zero.
func faulted(set func(p *batchPath, on bool), wantErr string) func(*testing.T, *batchPath) {
	return func(t *testing.T, p *batchPath) {
		set(p, true)
		_, errs := p.burst([]int{3, 4, 5})
		set(p, false)
		for _, err := range errs {
			if err == nil || !strings.Contains(err.Error(), wantErr) {
				t.Fatalf("faulted request: err %v, want %q", err, wantErr)
			}
		}
		for _, r := range p.reps {
			if got := r.dev.Stats().AllocBytes; got != 0 {
				t.Fatalf("%s still accounts %d batch bytes after the fault", r.dev.Name, got)
			}
		}
	}
}

// replicaFault switches every replica between fault and healthy.
func replicaFault(fault int32) func(*batchPath, bool) {
	return func(p *batchPath, on bool) {
		if on {
			p.arm(fault)
		} else {
			p.arm(faultNone)
		}
	}
}

// TestBatchPathConformance runs one scenario table through every way of
// reaching the replica pool — the single-process server, a dispatch server
// over the pool, and a coordinator over a real fleet worker on loopback —
// and requires the same answers, the same error per fault, Accepted ==
// Responded, and a server that still serves afterwards.
func TestBatchPathConformance(t *testing.T) {
	scenarios := []struct {
		name string
		run  func(t *testing.T, p *batchPath)
	}{
		{"healthy batch", func(t *testing.T, p *batchPath) {}},
		{"wrong row count", faulted(replicaFault(faultExtraRow), "logit rows")},
		{"panic in Forward", faulted(replicaFault(faultPanic), "replica failure")},
		{"panic in Backend.Batch", faulted(func(p *batchPath, on bool) { p.be.poisoned.Store(on) }, "replica failure")},
		{"one expired member in the group", func(t *testing.T, p *batchPath) {
			expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
			defer cancel()
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := p.predict(expired, 9); !errors.Is(err, context.DeadlineExceeded) {
					t.Errorf("expired member: err %v, want DeadlineExceeded", err)
				}
			}()
			if _, err := p.predict(context.Background(), 6); err != nil {
				t.Errorf("live member of the group: %v", err)
			}
			wg.Wait()
			waitFor(t, 5*time.Second, "the expired member to be counted", func() bool {
				return p.srv.Stats().Expired == 1
			})
		}},
		{"cancelled before a replica is free", func(t *testing.T, p *batchPath) {
			p.arm(faultBlock)
			var wg sync.WaitGroup
			for range p.reps {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if _, err := p.predict(context.Background(), 4); err != nil {
						t.Errorf("request holding a replica: %v", err)
					}
				}()
				// One at a time, so no two of them coalesce onto one replica.
				<-p.reps[0].entered
			}
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			defer cancel()
			if _, err := p.predict(ctx, 5); !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("request with every replica busy: err %v, want DeadlineExceeded", err)
			}
			p.arm(faultNone)
			close(p.reps[0].release)
			wg.Wait()
		}},
	}
	for _, sc := range scenarios {
		for mode := range batchPaths {
			t.Run(sc.name+"/"+batchPaths[mode].name, func(t *testing.T) {
				p := startBatchPath(t, mode)
				sc.run(t, p)
				p.checkHealthy(t)
				waitFor(t, 5*time.Second, "every accepted request to be answered", func() bool {
					st := p.srv.Stats()
					return st.Accepted == st.Responded
				})
				if p.workerReg != nil {
					waitFor(t, 5*time.Second, "the worker's pods to drain", func() bool {
						v, ok := metricValue(t, p.workerReg,
							fmt.Sprintf(`gnnlab_fleet_worker_pods_inflight{worker=%q}`, p.workerID))
						return ok && v == 0
					})
				}
			})
		}
	}
}

// TestConstructorsAgreeOnReplicaSets: serve.New and NewWorker share the
// pool's constructor, so they accept and reject exactly the same replica
// sets — in particular two replicas whose backends are distinct values of
// the same framework, which comparing the interface values (pointers to
// zero-size structs) left to the compiler.
func TestConstructorsAgreeOnReplicaSets(t *testing.T) {
	rep := func(be fw.Backend) serve.Replica {
		return &scriptedReplica{be: &scriptedBackend{Backend: be}}
	}
	cases := []struct {
		name   string
		reps   []serve.Replica
		reject string // "" = accepted
	}{
		{"no replicas", nil, "need at least one replica"},
		{"one replica", []serve.Replica{rep(pygeo.New())}, ""},
		{"two PyG backends from two New calls", []serve.Replica{rep(pygeo.New()), rep(pygeo.New())}, ""},
		{"two DGL backends from two New calls", []serve.Replica{rep(dglb.New()), rep(dglb.New())}, ""},
		{"PyG next to DGL", []serve.Replica{rep(pygeo.New()), rep(dglb.New())}, "replica backends disagree: PyG vs DGL"},
	}
	panicOf := func(build func()) (msg string) {
		defer func() {
			if p := recover(); p != nil {
				msg = fmt.Sprint(p)
			}
		}()
		build()
		return ""
	}
	for _, tc := range cases {
		fromNew := panicOf(func() { serve.New(tc.reps, serve.Options{}).Shutdown(context.Background()) })
		fromWorker := panicOf(func() { NewWorker(tc.reps, WorkerOptions{}) })
		if fromNew != fromWorker {
			t.Errorf("%s: serve.New said %q, NewWorker said %q", tc.name, fromNew, fromWorker)
		}
		if (tc.reject == "") != (fromNew == "") || !strings.Contains(fromNew, tc.reject) {
			t.Errorf("%s: constructors said %q, want %q", tc.name, fromNew, tc.reject)
		}
	}
}

// TestWorkerReplicaPanicAnswersJobErr: a replica that panics mid-job costs
// the coordinator one failed job — a JobErr on a connection that stays up —
// and leaves the worker's forensics behind: the fleet-replica-panic event
// and a flight-recorder dump.
func TestWorkerReplicaPanicAnswersJobErr(t *testing.T) {
	rep := &scriptedReplica{be: &scriptedBackend{Backend: pygeo.New()}}
	rep.fault.Store(faultPanic)
	reg := obs.NewRegistry()
	events := obs.NewEventLog(0, nil)
	flightDir := t.TempDir()
	_, addr := serveWorker(t, "", []serve.Replica{rep}, WorkerOptions{
		ID: "poisoned", Registry: reg, Events: events,
		Flight: obs.NewFlightRecorder(nil, events, reg, obs.FlightOptions{Dir: flightDir}),
	})
	opt := fastFleetOptions(t)
	opt.ExpectHash = [32]byte{}
	mgr := connectManager(t, []string{addr}, opt)

	graphs := []*graph.Graph{ringGraph(5, testFeatures)}
	if _, err := mgr.RunBatch(context.Background(), graphs); err == nil || !strings.Contains(err.Error(), "replica failure") {
		t.Fatalf("job on a panicking replica: err %v, want the worker's replica failure", err)
	}
	rep.fault.Store(faultNone)
	if _, err := mgr.RunBatch(context.Background(), graphs); err != nil {
		t.Fatalf("job after the panic: %v", err)
	}
	if st, evictions, _ := mgr.Stats(); evictions != 0 || st[0].State != StateHealthy {
		t.Errorf("panic cost the connection: state %v, %d evictions", st[0].State, evictions)
	}
	if v, _ := metricValue(t, reg, `gnnlab_fleet_worker_jobs_total{worker="poisoned",outcome="error"}`); v != 1 {
		t.Errorf("worker error-job counter %g, want 1", v)
	}
	logged := false
	for _, ev := range events.Events() {
		logged = logged || ev.Msg == "fleet-replica-panic"
	}
	if !logged {
		t.Error("event log holds no fleet-replica-panic event")
	}
	entries, err := os.ReadDir(flightDir)
	if err != nil {
		t.Fatal(err)
	}
	dumped := false
	for _, e := range entries {
		dumped = dumped || strings.HasPrefix(e.Name(), "flight-replica-panic-")
	}
	if !dumped {
		t.Errorf("no flight-replica-panic-* dump in %s (found %d files)", flightDir, len(entries))
	}
}

// TestWorkerCancelWhileWaitingForReplica: with more pods than replicas a job
// can be admitted and then wait for a replica; cancelled there it must be
// answered ErrCodeCancelled and give its pod back.
func TestWorkerCancelWhileWaitingForReplica(t *testing.T) {
	rep := &scriptedReplica{be: &scriptedBackend{Backend: pygeo.New()},
		entered: make(chan struct{}, 1), release: make(chan struct{})}
	rep.fault.Store(faultBlock)
	reg := obs.NewRegistry()
	_, addr := serveWorker(t, "", []serve.Replica{rep}, WorkerOptions{ID: "oversubscribed", MaxPods: 2, Registry: reg})
	pods := func() float64 {
		v, _ := metricValue(t, reg, `gnnlab_fleet_worker_pods_inflight{worker="oversubscribed"}`)
		return v
	}

	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(10 * time.Second))
	send := func(f rpc.Frame) {
		t.Helper()
		if err := rpc.WriteFrame(c, f); err != nil {
			t.Fatalf("write frame type %d: %v", f.Type, err)
		}
	}
	read := func() rpc.Frame {
		t.Helper()
		f, err := rpc.ReadFrame(c)
		if err != nil {
			t.Fatalf("read frame: %v", err)
		}
		return f
	}
	send(rpc.Frame{Type: rpc.FrameHello, Payload: rpc.AppendHello(nil, rpc.Hello{Version: rpc.ProtocolVersion})})
	if f := read(); f.Type != rpc.FrameWelcome {
		t.Fatalf("handshake answered frame type %d", f.Type)
	}
	job, err := rpc.AppendJob(nil, obs.TraceContext{}, []*graph.Graph{ringGraph(5, testFeatures)})
	if err != nil {
		t.Fatal(err)
	}

	send(rpc.Frame{Type: rpc.FrameJob, Job: 1, Payload: job})
	<-rep.entered // job 1 holds the only replica
	send(rpc.Frame{Type: rpc.FrameJob, Job: 2, Payload: job})
	waitFor(t, 5*time.Second, "job 2 to take the second pod", func() bool { return pods() == 2 })
	send(rpc.Frame{Type: rpc.FrameCancel, Job: 2})

	f := read()
	if f.Type != rpc.FrameJobErr || f.Job != 2 {
		t.Fatalf("after cancelling job 2: frame type %d for job %d, want a JobErr for job 2", f.Type, f.Job)
	}
	je, err := rpc.DecodeJobErr(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if je.Code != rpc.ErrCodeCancelled {
		t.Fatalf("job cancelled while waiting for a replica: code %d (%s), want ErrCodeCancelled", je.Code, je.Message)
	}
	waitFor(t, 5*time.Second, "job 2 to release its pod", func() bool { return pods() == 1 })

	rep.fault.Store(faultNone)
	close(rep.release)
	for f := read(); f.Type != rpc.FrameJobDone; f = read() {
		if f.Type == rpc.FrameJobErr {
			t.Fatalf("job 1 failed after job 2 was cancelled")
		}
	}
	waitFor(t, 5*time.Second, "every pod to be released", func() bool { return pods() == 0 })
}
