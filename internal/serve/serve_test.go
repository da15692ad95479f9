package serve

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/fw"
	"repro/internal/fw/pygeo"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/tensor"
)

// fakeReplica predicts class = (node count of the graph) % classes after an
// optional delay, and records every batch size it sees. The deterministic
// class lets tests verify that each request receives the prediction for its
// own graph, not a neighbor's row.
type fakeReplica struct {
	be      fw.Backend
	dev     *device.Device // nil = unaccounted
	classes int
	delay   time.Duration

	mu    sync.Mutex
	sizes []int
}

func (f *fakeReplica) Backend() fw.Backend    { return f.be }
func (f *fakeReplica) Device() *device.Device { return f.dev }

func (f *fakeReplica) Forward(b *fw.Batch) *tensor.Tensor {
	if f.delay > 0 {
		time.Sleep(f.delay)
	}
	f.mu.Lock()
	f.sizes = append(f.sizes, b.NumGraphs)
	f.mu.Unlock()
	t := tensor.New(b.NumGraphs, f.classes)
	for i := 0; i < b.NumGraphs; i++ {
		n := b.NodeOffsets[i+1] - b.NodeOffsets[i]
		t.Set(i, n%f.classes, 1)
	}
	return t
}

func (f *fakeReplica) maxBatch() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	m := 0
	for _, s := range f.sizes {
		if s > m {
			m = s
		}
	}
	return m
}

// ringGraph builds an n-node directed ring with constant features.
func ringGraph(n, width int) *graph.Graph {
	src := make([]int, n)
	dst := make([]int, n)
	for i := 0; i < n; i++ {
		src[i] = i
		dst[i] = (i + 1) % n
	}
	x := tensor.New(n, width)
	for i := range x.Data {
		x.Data[i] = 0.5
	}
	return &graph.Graph{NumNodes: n, Src: src, Dst: dst, X: x}
}

func newFakeServer(t *testing.T, classes int, delay time.Duration, opt Options) (*Server, *fakeReplica) {
	t.Helper()
	rep := &fakeReplica{be: pygeo.New(), classes: classes, delay: delay}
	s := New([]Replica{rep}, opt)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, rep
}

func TestPredictModelReplica(t *testing.T) {
	be := pygeo.New()
	m := models.New("GCN", be, models.Config{
		Task: models.GraphClassification, In: 6, Hidden: 8, Out: 8,
		Classes: 4, Layers: 2, Seed: 1,
	})
	s := New([]Replica{NewModelReplica(m, device.Default())}, Options{NumFeatures: 6})
	defer s.Shutdown(context.Background())

	p, err := s.Predict(context.Background(), ringGraph(7, 6))
	if err != nil {
		t.Fatalf("Predict: %v", err)
	}
	if len(p.Logits) != 4 {
		t.Fatalf("got %d logits, want 4", len(p.Logits))
	}
	if p.Class < 0 || p.Class >= 4 {
		t.Fatalf("class %d out of range", p.Class)
	}
	best := p.Logits[p.Class]
	for _, v := range p.Logits {
		if v > best {
			t.Fatalf("class %d is not the argmax of %v", p.Class, p.Logits)
		}
	}
}

func TestPredictRoutesRowsToRequests(t *testing.T) {
	const classes = 13
	s, _ := newFakeServer(t, classes, 0, Options{MaxBatch: 8, BatchWindow: 5 * time.Millisecond})
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for n := 3; n < 3+32; n++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			p, err := s.Predict(context.Background(), ringGraph(n, 4))
			if err != nil {
				errs <- err
				return
			}
			if p.Class != n%classes {
				errs <- errors.New("prediction row routed to wrong request")
			}
		}(n)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestPredictValidation(t *testing.T) {
	s, _ := newFakeServer(t, 3, 0, Options{NumFeatures: 4})
	cases := map[string]*graph.Graph{
		"nil graph":     nil,
		"empty graph":   {},
		"no features":   {NumNodes: 2, Src: []int{0}, Dst: []int{1}},
		"bad edge":      {NumNodes: 2, Src: []int{5}, Dst: []int{1}, X: tensor.New(2, 4)},
		"wrong width":   ringGraph(3, 7),
		"ragged labels": {NumNodes: 2, X: tensor.New(2, 4), Y: []int{0}},
	}
	for name, g := range cases {
		if _, err := s.Predict(context.Background(), g); !errors.Is(err, ErrInvalid) {
			t.Errorf("%s: got %v, want ErrInvalid", name, err)
		}
	}
	st := s.Stats()
	if st.Accepted != 0 {
		t.Fatalf("invalid requests were accepted: %+v", st)
	}
}

func TestQueueOverflow(t *testing.T) {
	s, _ := newFakeServer(t, 3, 30*time.Millisecond, Options{
		MaxBatch: 1, QueueDepth: 1, BatchWindow: -1, Timeout: 30 * time.Second,
	})
	const n = 16
	var wg sync.WaitGroup
	var mu sync.Mutex
	var ok, full int
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := s.Predict(context.Background(), ringGraph(4, 2))
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				ok++
			case errors.Is(err, ErrQueueFull):
				full++
			default:
				t.Errorf("unexpected error: %v", err)
			}
		}()
	}
	wg.Wait()
	if ok+full != n {
		t.Fatalf("ok %d + rejected %d != %d requests", ok, full, n)
	}
	if full == 0 {
		t.Fatal("queue depth 1 with 16 concurrent slow requests produced no backpressure")
	}
	st := s.Stats()
	if st.Rejected != int64(full) || st.Accepted != int64(ok) {
		t.Fatalf("stats %+v disagree with observed ok=%d full=%d", st, ok, full)
	}
}

func TestPredictDeadline(t *testing.T) {
	s, _ := newFakeServer(t, 3, 100*time.Millisecond, Options{MaxBatch: 1, BatchWindow: -1})
	// Saturate the single replica so the second request waits long enough
	// for its 5ms deadline to pass.
	go s.Predict(context.Background(), ringGraph(4, 2))
	time.Sleep(5 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if _, err := s.Predict(ctx, ringGraph(5, 2)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want DeadlineExceeded", err)
	}
}

func TestShutdownDrains(t *testing.T) {
	s, rep := newFakeServer(t, 5, 10*time.Millisecond, Options{
		MaxBatch: 2, QueueDepth: 32, BatchWindow: time.Millisecond, Timeout: 30 * time.Second,
	})
	const n = 8
	results := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			_, err := s.Predict(context.Background(), ringGraph(6, 2))
			results <- err
		}()
	}
	// Wait until every request is accepted, then drain.
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Accepted < n {
		if time.Now().After(deadline) {
			t.Fatalf("requests not accepted in time: %+v", s.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	for i := 0; i < n; i++ {
		if err := <-results; err != nil {
			t.Fatalf("accepted request dropped during drain: %v", err)
		}
	}
	if _, err := s.Predict(context.Background(), ringGraph(4, 2)); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-shutdown Predict: got %v, want ErrClosed", err)
	}
	if !s.Closed() {
		t.Fatal("server not marked closed")
	}
	st := s.Stats()
	if st.Responded != n {
		t.Fatalf("responded to %d of %d accepted requests", st.Responded, n)
	}
	if m := rep.maxBatch(); m > 2 {
		t.Fatalf("batch of %d exceeds MaxBatch 2", m)
	}
}

func TestReplicaPanicAnswersGroup(t *testing.T) {
	// A node-classification model emits per-node rows; the server must
	// answer with an error, not hang or crash.
	be := pygeo.New()
	m := models.New("GCN", be, models.Config{
		Task: models.NodeClassification, In: 3, Hidden: 4, Classes: 2, Layers: 2, Seed: 1,
	})
	s := New([]Replica{NewModelReplica(m, nil)}, Options{})
	defer s.Shutdown(context.Background())
	_, err := s.Predict(context.Background(), ringGraph(5, 3))
	if err == nil || errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want immediate shape error", err)
	}
}

func TestReplicaRealPanicRecovered(t *testing.T) {
	// classes == 0 makes fakeReplica's n%classes divide by zero: a genuine
	// panic inside Forward. The group must still be answered with an error
	// and the server must survive for later requests.
	s, rep := newFakeServer(t, 0, 0, Options{})
	_, err := s.Predict(context.Background(), ringGraph(4, 2))
	if err == nil || !strings.Contains(err.Error(), "replica failure") {
		t.Fatalf("got %v, want replica failure error", err)
	}
	rep.classes = 3
	if _, err := s.Predict(context.Background(), ringGraph(4, 2)); err != nil {
		t.Fatalf("server did not survive replica panic: %v", err)
	}
}

// TestReplicaPanicReleasesBatch pins the device-accounting fix: collation
// charges the batch to the replica's device, and a panic inside Forward used
// to skip the release, so every poisoned request leaked one batch of
// gnnlab_device_alloc_bytes forever.
func TestReplicaPanicReleasesBatch(t *testing.T) {
	dev := device.New("cuda:0", device.RTX2080Ti())
	rep := &fakeReplica{be: pygeo.New(), dev: dev, classes: 0} // classes 0: Forward divides by zero
	s := New([]Replica{rep}, Options{})
	defer s.Shutdown(context.Background())
	for i := 0; i < 3; i++ {
		if _, err := s.Predict(context.Background(), ringGraph(4+i, 2)); err == nil || !strings.Contains(err.Error(), "replica failure") {
			t.Fatalf("poisoned batch %d: got %v, want replica failure", i, err)
		}
		if got := dev.Stats().AllocBytes; got != 0 {
			t.Fatalf("after %d panicking batches the device still accounts %d bytes", i+1, got)
		}
	}
	rep.classes = 3
	if _, err := s.Predict(context.Background(), ringGraph(4, 2)); err != nil {
		t.Fatalf("healthy batch after the panics: %v", err)
	}
	if got := dev.Stats().AllocBytes; got != 0 {
		t.Fatalf("healthy batch left %d bytes accounted", got)
	}
}

func TestMetricsExposition(t *testing.T) {
	s, _ := newFakeServer(t, 3, 0, Options{MaxBatch: 4})
	if _, err := s.Predict(context.Background(), ringGraph(4, 2)); err != nil {
		t.Fatalf("Predict: %v", err)
	}
	var sb strings.Builder
	s.WriteMetrics(&sb)
	out := sb.String()
	for _, want := range []string{
		"gnnserve_queue_depth 0",
		`gnnserve_requests_total{outcome="accepted"} 1`,
		"gnnserve_responses_total 1",
		"gnnserve_batches_total 1",
		`gnnserve_batch_size_bucket{le="1"} 1`,
		`gnnserve_batch_size_bucket{le="+Inf"} 1`,
		`gnnserve_phase_seconds{phase="collate"}`,
		`gnnserve_phase_seconds{phase="forward"}`,
		`gnnserve_phase_seconds{phase="other"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q in:\n%s", want, out)
		}
	}
}

// TestServeGroupRecoversPanic pins the worker-survival fix: a panic escaping
// the batch path must answer every unanswered request in the group with an
// error (so callers unblock) without disturbing requests the run already
// answered, and without killing the calling goroutine.
func TestServeGroupRecoversPanic(t *testing.T) {
	group := []*request{
		{ctx: context.Background(), done: make(chan result, 1)},
		{ctx: context.Background(), done: make(chan result, 1)},
		{ctx: context.Background(), done: make(chan result, 1)},
	}
	preAnswered := errors.New("answered before the panic")
	s := Server{runner: runnerFunc(func(context.Context, []*graph.Graph) ([]Prediction, error) {
		group[2].respond(result{err: preAnswered})
		panic("boom")
	})}
	s.serveGroup(group)
	for i, r := range group[:2] {
		select {
		case res := <-r.done:
			if res.err == nil || !strings.Contains(res.err.Error(), "runner failure: boom") {
				t.Errorf("request %d: err = %v, want runner failure", i, res.err)
			}
		default:
			t.Errorf("request %d never answered after panic", i)
		}
	}
	if res := <-group[2].done; res.err != preAnswered {
		t.Errorf("pre-answered request got %v, want its original answer", res.err)
	}
	if len(group[2].done) != 0 {
		t.Error("recovery double-sent to an already-answered request")
	}
}

// runnerFunc adapts a function to the Runner interface.
type runnerFunc func(context.Context, []*graph.Graph) ([]Prediction, error)

func (f runnerFunc) RunBatch(ctx context.Context, graphs []*graph.Graph) ([]Prediction, error) {
	return f(ctx, graphs)
}
