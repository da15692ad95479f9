package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
)

// fakeRunner is a deterministic in-process Runner: class = node count %
// classes, like fakeReplica, so routing mistakes are visible. It can delay,
// fail its first failN calls, or panic on demand.
type fakeRunner struct {
	classes int
	delay   time.Duration
	failN   atomic.Int64
	panics  atomic.Bool

	mu    sync.Mutex
	sizes []int
}

func (f *fakeRunner) RunBatch(ctx context.Context, graphs []*graph.Graph) ([]Prediction, error) {
	if f.panics.Load() {
		panic("fakeRunner: poisoned batch")
	}
	if f.failN.Add(-1) >= 0 {
		return nil, errors.New("fakeRunner: injected failure")
	}
	if f.delay > 0 {
		select {
		case <-time.After(f.delay):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	f.mu.Lock()
	f.sizes = append(f.sizes, len(graphs))
	f.mu.Unlock()
	preds := make([]Prediction, len(graphs))
	for i, g := range graphs {
		logits := make([]float64, f.classes)
		logits[g.NumNodes%f.classes] = 1
		preds[i] = Prediction{Class: g.NumNodes % f.classes, Logits: logits}
	}
	return preds, nil
}

func newDispatchServer(t *testing.T, run *fakeRunner, concurrency int, opt Options) *Server {
	t.Helper()
	s := NewDispatch(run, concurrency, opt)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s
}

// TestDispatchRoutesRowsToRequests is the dispatch-mode half of
// TestPredictRoutesRowsToRequests: concurrent requests coalesced into groups
// must each get the prediction for their own graph back from the runner.
func TestDispatchRoutesRowsToRequests(t *testing.T) {
	const classes = 13
	run := &fakeRunner{classes: classes}
	s := newDispatchServer(t, run, 2, Options{MaxBatch: 8, BatchWindow: 5 * time.Millisecond})
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		n := 3 + i%9
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			p, err := s.Predict(context.Background(), ringGraph(n, 2))
			if err != nil {
				errs <- err
				return
			}
			if p.Class != n%classes {
				errs <- fmt.Errorf("graph of %d nodes predicted class %d, want %d", n, p.Class, n%classes)
			}
		}(n)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	run.mu.Lock()
	defer run.mu.Unlock()
	for _, sz := range run.sizes {
		if sz > 8 {
			t.Fatalf("runner saw a group of %d graphs, max batch 8", sz)
		}
	}
}

// TestDispatchBackpressure429 pins the coordinator's saturation behavior:
// with the one dispatch slot occupied and the bounded queue full, /predict
// answers 429 immediately instead of queueing forever, and the reject counter
// and queue-depth gauge both show it.
func TestDispatchBackpressure429(t *testing.T) {
	run := &fakeRunner{classes: 3, delay: 40 * time.Millisecond}
	s := newDispatchServer(t, run, 1, Options{
		MaxBatch: 1, QueueDepth: 1, BatchWindow: -1, Timeout: 30 * time.Second,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 16
	codes := make(chan int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, _, err := postPredict(ts, requestBody(5, 2))
			if err != nil {
				t.Errorf("client: %v", err)
				return
			}
			codes <- code
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
	if other != 0 || ok+throttled != n {
		t.Fatalf("responses split ok=%d 429=%d other=%d of %d", ok, throttled, other, n)
	}
	if throttled == 0 {
		t.Fatal("no 429 despite queue depth 1 and a slow runner")
	}

	var sb strings.Builder
	s.WriteMetrics(&sb)
	_, samples := parseExposition(t, sb.String())
	if got := samples[`gnnserve_requests_total{outcome="rejected"}`]; got != float64(throttled) {
		t.Errorf("rejected counter %g, want %d", got, throttled)
	}
	if _, present := samples["gnnserve_queue_depth"]; !present {
		t.Error("queue-depth gauge missing from coordinator exposition")
	}
}

// TestWriteMetricsCompatDispatch extends the serving-metrics compat contract
// to coordinator mode: a dispatch server must expose the same gnnserve_*
// families with the same types as the single-process server, so dashboards
// survive the topology change unmodified.
func TestWriteMetricsCompatDispatch(t *testing.T) {
	run := &fakeRunner{classes: 3}
	s := newDispatchServer(t, run, 1, Options{MaxBatch: 4})
	for i := 0; i < 3; i++ {
		if _, err := s.Predict(context.Background(), ringGraph(4, 2)); err != nil {
			t.Fatalf("Predict: %v", err)
		}
	}
	var sb strings.Builder
	s.WriteMetrics(&sb)
	types, samples := parseExposition(t, sb.String())

	wantTypes := map[string]string{
		"gnnserve_queue_depth":     "gauge",
		"gnnserve_requests_total":  "counter",
		"gnnserve_responses_total": "counter",
		"gnnserve_batches_total":   "counter",
		"gnnserve_batch_size":      "histogram",
		"gnnserve_phase_seconds":   "counter",
		// The coalescer's own account of itself.
		"gnnserve_queue_wait_seconds": "histogram",
		"gnnserve_batch_close_total":  "counter",
		"gnnserve_pool_utilization":   "gauge",
	}
	for name, want := range wantTypes {
		if got := types[name]; got != want {
			t.Errorf("coordinator metric %s has type %q, want %q", name, got, want)
		}
	}
	if samples["gnnserve_responses_total"] != 3 {
		t.Errorf("responses_total = %g, want 3", samples["gnnserve_responses_total"])
	}
	inf := samples[`gnnserve_batch_size_bucket{le="+Inf"}`]
	if inf != samples["gnnserve_batch_size_count"] {
		t.Errorf("batch-size histogram +Inf bucket %g != count %g", inf, samples["gnnserve_batch_size_count"])
	}
}

// TestDispatchDrain is the serve-level drain regression: shutting the
// coordinator down while groups are in flight at the runner must wait for
// their responses — every accepted request is answered, none dropped.
func TestDispatchDrain(t *testing.T) {
	run := &fakeRunner{classes: 3, delay: 60 * time.Millisecond}
	s := NewDispatch(run, 2, Options{MaxBatch: 2, QueueDepth: 32, BatchWindow: time.Millisecond, Timeout: 30 * time.Second})

	const n = 6
	type outcome struct {
		pred Prediction
		err  error
	}
	results := make(chan outcome, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := s.Predict(context.Background(), ringGraph(5, 2))
			results <- outcome{p, err}
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Accepted < n {
		if time.Now().After(deadline) {
			t.Fatalf("requests not accepted: %+v", s.Stats())
		}
		time.Sleep(200 * time.Microsecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	wg.Wait()
	close(results)
	for o := range results {
		if o.err != nil {
			t.Fatalf("accepted request dropped during drain: %v", o.err)
		}
		if o.pred.Class != 5%3 {
			t.Fatalf("drained request got class %d, want %d", o.pred.Class, 5%3)
		}
	}
	st := s.Stats()
	if st.Responded != n {
		t.Fatalf("responded %d, want %d", st.Responded, n)
	}
}

// TestDispatchRunnerFailureIsolated: a failing or panicking runner answers
// its group with an error but never kills the server.
func TestDispatchRunnerFailureIsolated(t *testing.T) {
	run := &fakeRunner{classes: 3}
	run.failN.Store(1)
	s := newDispatchServer(t, run, 1, Options{MaxBatch: 1, BatchWindow: -1})
	if _, err := s.Predict(context.Background(), ringGraph(4, 2)); err == nil {
		t.Fatal("injected runner failure not surfaced")
	}
	if _, err := s.Predict(context.Background(), ringGraph(4, 2)); err != nil {
		t.Fatalf("server dead after runner failure: %v", err)
	}

	run.panics.Store(true)
	if _, err := s.Predict(context.Background(), ringGraph(4, 2)); err == nil || !strings.Contains(err.Error(), "runner failure") {
		t.Fatalf("panicking runner: err %v, want runner failure", err)
	}
	run.panics.Store(false)
	if _, err := s.Predict(context.Background(), ringGraph(4, 2)); err != nil {
		t.Fatalf("server dead after runner panic: %v", err)
	}
}

// TestDispatchSwapModelRejected: coordinator mode has no local weights to
// swap; the reload path must say so instead of silently succeeding.
func TestDispatchSwapModelRejected(t *testing.T) {
	run := &fakeRunner{classes: 3}
	s := newDispatchServer(t, run, 1, Options{})
	if err := s.SwapModel(nil); err == nil || !strings.Contains(err.Error(), "reload the workers") {
		t.Fatalf("SwapModel on dispatch server: %v", err)
	}
	if s.Backend() != nil {
		t.Fatal("dispatch server reports a collation backend")
	}
}
