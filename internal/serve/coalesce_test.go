package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
)

// The coalescer's policy tests. The utilisation gate reads the server's load
// clock, which these tests own: time passes only when a test says so, so "the
// pool sat idle for 10 ms" and "both workers were busy for 10 ms" are
// statements, not sleeps, and every wait is for an event (the quiet gap is a
// real timer: a quarter of a millisecond, or what a test stretches it to).

// fakeClock is a load-accounting clock that moves only when told to.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// gatedRunner is a fakeRunner behind a gate: while held, every RunBatch first
// reports its group size on entered and then blocks until the test sends a
// token on release.
type gatedRunner struct {
	fakeRunner
	held    atomic.Bool
	entered chan int // buffered for every batch a test lets in
	release chan struct{}
	opened  sync.Once
}

func newGatedRunner(classes int) *gatedRunner {
	return &gatedRunner{fakeRunner: fakeRunner{classes: classes}, entered: make(chan int, 256), release: make(chan struct{})}
}

func (g *gatedRunner) RunBatch(ctx context.Context, graphs []*graph.Graph) ([]Prediction, error) {
	if g.held.Load() {
		g.entered <- len(graphs)
		select {
		case <-g.release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return g.fakeRunner.RunBatch(ctx, graphs)
}

// open lets every blocked and future batch through; tests defer it so a
// failure never leaves Shutdown waiting on a held batch.
func (g *gatedRunner) open() {
	g.opened.Do(func() {
		g.held.Store(false)
		close(g.release)
	})
}

// nextEntered returns the size of the next group to reach the held runner.
func (g *gatedRunner) nextEntered(t *testing.T) int {
	t.Helper()
	select {
	case n := <-g.entered:
		return n
	case <-time.After(10 * time.Second):
		t.Fatal("no group reached the runner")
		return 0
	}
}

// startPolicyServer is NewDispatch with the load clock in the test's hands;
// tune, if given, adjusts the server before its goroutines start.
func startPolicyServer(t *testing.T, run Runner, workers int, opt Options, tune ...func(*Server)) (*Server, *fakeClock) {
	t.Helper()
	clk := &fakeClock{t: time.Unix(1_000_000, 0)}
	s := newServer(opt)
	s.now = clk.Now
	for _, f := range tune {
		f(s)
	}
	s.start(run, workers)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, clk
}

// waitFor polls until cond holds: the tests' one way of waiting for a state
// no channel announces.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

func busyWorkers(s *Server) int {
	s.load.mu.Lock()
	defer s.load.mu.Unlock()
	return s.load.busy
}

func closes(s *Server) (c [numCloseReasons]int) {
	for r := range c {
		c[r] = int(s.met.closed[r].Value())
	}
	return c
}

// startPredicts issues one Predict per graph concurrently, each with the given
// deadline, and returns a function that waits for all of them. Any error
// fails the test.
func startPredicts(t *testing.T, s *Server, timeout time.Duration, graphs ...*graph.Graph) (wait func()) {
	t.Helper()
	var wg sync.WaitGroup
	for _, g := range graphs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), timeout)
			defer cancel()
			if _, err := s.Predict(ctx, g); err != nil {
				t.Errorf("Predict: %v", err)
			}
		}()
	}
	return wg.Wait
}

// predictAll is startPredicts and the wait, with a deadline no healthy run
// comes near.
func predictAll(t *testing.T, s *Server, graphs ...*graph.Graph) {
	t.Helper()
	startPredicts(t, s, 20*time.Second, graphs...)()
}

// teachIdle shows the gate an idle pool: bursts of MaxBatch requests (which
// close full at once whatever the policy) with 10 ms of load-clock time and
// no busy worker between them, until the estimate is below the threshold.
func teachIdle(t *testing.T, s *Server, clk *fakeClock) {
	t.Helper()
	burst := make([]*graph.Graph, s.opt.MaxBatch)
	for i := range burst {
		burst[i] = ringGraph(2, 2)
	}
	for n := 0; s.met.utilization.Value() >= saturatedUtilization; n++ {
		if n == 20 {
			t.Fatalf("utilisation still %.3f after %d idle intervals", s.met.utilization.Value(), n)
		}
		waitFor(t, "idle workers", func() bool { return busyWorkers(s) == 0 })
		clk.Advance(10 * time.Millisecond)
		predictAll(t, s, burst...)
	}
}

// (a) An idle pool does not charge requests the window: once the gate has
// seen idle intervals, one-at-a-time requests against a 5 s window are
// answered at once and counted as idle closes.
func TestCoalesceIdlePoolClosesEarly(t *testing.T) {
	s, clk := startPolicyServer(t, &fakeRunner{classes: 3}, 2,
		Options{MaxBatch: 4, BatchWindow: 5 * time.Second, Timeout: 30 * time.Second})
	teachIdle(t, s, clk)
	before := closes(s)

	const n = 10
	for i := 0; i < n; i++ {
		start := time.Now()
		predictAll(t, s, ringGraph(4, 2))
		if d := time.Since(start); d > time.Second {
			t.Fatalf("request %d took %v against an idle pool", i, d)
		}
	}
	after := closes(s)
	if got := after[closeIdle] - before[closeIdle]; got != n {
		t.Errorf("%d of %d sequential requests closed idle (closes %v -> %v)", got, n, before, after)
	}
	if after[closeWindow] != 0 {
		t.Errorf("%d groups waited out the window", after[closeWindow])
	}
}

// (b) The 1 + 31 split as a regression test. Two workers, 64 closed-loop
// callers, MaxBatch 32: each time a worker answers its batch it is idle for
// the instant it takes its 32 callers to come back. A saturated pool must
// keep filling to 32 through that instant; a policy that closes because "a
// worker is idle" sends 1 and then 31.
func TestCoalesceSaturatedBurstsStayFull(t *testing.T) {
	const workers, maxBatch, callers, rounds = 2, 32, 64, 40
	run := newGatedRunner(3)
	run.held.Store(true)
	// No quiet gap: it is the gate that must keep the bursts whole, not the
	// gap happening to outlast the callers' way back.
	s, clk := startPolicyServer(t, run, workers,
		Options{MaxBatch: maxBatch, BatchWindow: 5 * time.Second, Timeout: time.Minute},
		func(s *Server) { s.gap = 0 })

	var stop atomic.Bool
	var wg sync.WaitGroup
	stopCallers := func() {
		stop.Store(true)
		run.open()
		wg.Wait()
	}
	defer stopCallers() // also on a failed round, so no caller outlives the test
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if _, err := s.Predict(context.Background(), ringGraph(4, 2)); err != nil {
					t.Errorf("Predict: %v", err)
					return
				}
			}
		}()
	}
	for w := 0; w < workers; w++ {
		if n := run.nextEntered(t); n != maxBatch {
			t.Fatalf("start-up group of %d, want %d", n, maxBatch)
		}
	}
	for round := 0; round < rounds; round++ {
		// Both workers hold a batch while 10 ms pass, then one answers.
		waitFor(t, "both workers busy", func() bool { return busyWorkers(s) == workers })
		clk.Advance(10 * time.Millisecond)
		if u := s.met.utilization.Value(); u < saturatedUtilization {
			t.Fatalf("round %d: utilisation %.3f reads unsaturated with every worker busy", round, u)
		}
		run.release <- struct{}{}
		if n := run.nextEntered(t); n != maxBatch {
			t.Fatalf("round %d: the burst reached the runner as a group of %d, want %d", round, n, maxBatch)
		}
	}
	stopCallers()

	c := closes(s)
	if c[closeIdle] != 0 || c[closeWindow] != 0 || c[closeFull] != workers+rounds {
		t.Errorf("closes full/idle/window/drain = %v, want %d full and nothing else", c, workers+rounds)
	}
	if h := s.Stats().BatchSizes; h.Sum() != maxBatch*float64(h.N()) {
		t.Errorf("batch sizes: %d batches hold %g graphs, want every batch at %d", h.N(), h.Sum(), maxBatch)
	}
}

// (c) With spare capacity on record but every worker busy right now, a group
// lingers — and the worker going idle, not the window, ends the linger.
func TestCoalesceIdleWorkerWakesLinger(t *testing.T) {
	run := newGatedRunner(3)
	defer run.open()
	s, clk := startPolicyServer(t, run, 1,
		Options{MaxBatch: 4, BatchWindow: 5 * time.Second, Timeout: 30 * time.Second})
	teachIdle(t, s, clk)
	before := closes(s)

	run.held.Store(true)
	accepted := s.Stats().Accepted
	// The deadlines are inside the window: an answer proves the group did not
	// wait it out.
	waitFirst := startPredicts(t, s, 2*time.Second, ringGraph(4, 2))
	if n := run.nextEntered(t); n != 1 {
		t.Fatalf("first group of %d, want 1", n)
	}
	waitSecond := startPredicts(t, s, 2*time.Second, ringGraph(4, 2))
	// The second request is with the coalescer, which has no idle worker to
	// give it to and nobody else in the queue: it lingers.
	waitFor(t, "the coalescer to hold the second request", func() bool {
		return s.Stats().Accepted == accepted+2 && len(s.queue) == 0
	})
	run.held.Store(false)
	run.release <- struct{}{}
	waitFirst()
	waitSecond()

	after := closes(s)
	if got := after[closeIdle] - before[closeIdle]; got != 2 || after[closeWindow] != 0 {
		t.Errorf("closes %v -> %v, want two more idle closes and no window close", before, after)
	}
}

// (d) A fresh server has no evidence of spare capacity and behaves as the
// fixed-window coalescer did: its first lone request waits the window out.
func TestCoalesceFreshServerWaitsWindow(t *testing.T) {
	const window = 50 * time.Millisecond
	s := newDispatchServer(t, &fakeRunner{classes: 3}, 2, Options{BatchWindow: window})
	start := time.Now()
	predictAll(t, s, ringGraph(4, 2))
	if d := time.Since(start); d < window {
		t.Errorf("first request answered after %v, before the %v window", d, window)
	}
	if c := closes(s); c[closeWindow] != 1 || c[closeIdle] != 0 {
		t.Errorf("closes full/idle/window/drain = %v, want one window close", c)
	}
	if u := s.met.utilization.Value(); u != 1 {
		t.Errorf("utilisation %.3f after one group, want the initial 1", u)
	}
}

// (e) BatchWindow < 0 is the plain drain whatever the gate reads: a group is
// what is queued when the coalescer looks, and never lingers.
func TestCoalesceNoWindowDrains(t *testing.T) {
	run := newGatedRunner(3)
	defer run.open()
	s, clk := startPolicyServer(t, run, 1,
		Options{MaxBatch: 4, BatchWindow: -1, Timeout: 30 * time.Second})
	teachIdle(t, s, clk)

	run.held.Store(true)
	var waits []func()
	send := func(n int) {
		accepted := s.Stats().Accepted
		graphs := make([]*graph.Graph, n)
		for i := range graphs {
			graphs[i] = ringGraph(4, 2)
		}
		waits = append(waits, startPredicts(t, s, 20*time.Second, graphs...))
		waitFor(t, "requests accepted", func() bool { return s.Stats().Accepted == accepted+int64(n) })
	}
	// One request occupies the worker, a second waits with the coalescer for
	// the worker, three more queue up behind it.
	send(1)
	if n := run.nextEntered(t); n != 1 {
		t.Fatalf("first group of %d, want 1", n)
	}
	closed := closes(s)[closeDrain]
	send(1)
	waitFor(t, "the second request's group to close", func() bool { return closes(s)[closeDrain] == closed+1 })
	send(3)
	for _, want := range []int{1, 3} {
		run.release <- struct{}{}
		if n := run.nextEntered(t); n != want {
			t.Fatalf("group of %d, want %d", n, want)
		}
	}
	run.open()
	for _, wait := range waits {
		wait()
	}
	if c := closes(s); c[closeIdle] != 0 || c[closeWindow] != 0 {
		t.Errorf("closes full/idle/window/drain = %v: a server without a window closed idle or on the window", c)
	}
}

// (f) An early-closed group is still a coalesced group: it goes through
// admission control like any other.
func TestCoalesceEarlyCloseStillAdmits(t *testing.T) {
	s, clk := startPolicyServer(t, &fakeRunner{classes: 3}, 2, Options{
		MaxBatch: 4, BatchWindow: 5 * time.Second, Timeout: 30 * time.Second,
		Predictor: stubPredictor{perNode: time.Millisecond}, AdmissionBudget: 10 * time.Millisecond,
	})
	teachIdle(t, s, clk) // bursts of four 2-node graphs predict 8 ms: admitted whole
	before := closes(s)
	admitted, predictions := s.met.cm.admitted.Value(), s.met.cm.predictions.Value()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, err := s.Predict(ctx, ringGraph(20, 2)); !errors.Is(err, ErrPredictedOverSLO) {
		t.Fatalf("20-node graph (predicted 20ms vs 10ms budget) got %v, want ErrPredictedOverSLO", err)
	}
	predictAll(t, s, ringGraph(4, 2))

	if got := closes(s)[closeIdle] - before[closeIdle]; got != 2 {
		t.Errorf("%d idle closes for two lone requests, want 2", got)
	}
	if got := s.met.cm.rejected.Value(); got != 1 {
		t.Errorf("admission rejected %g requests, want 1", got)
	}
	if got := s.met.cm.admitted.Value() - admitted; got != 1 {
		t.Errorf("admission passed %g early-closed groups unchanged, want 1", got)
	}
	if got := s.met.cm.predictions.Value() - predictions; got < 3 {
		t.Errorf("%g predictions for a rejected and an admitted group, want at least 3", got)
	}
}

// (g) Spare capacity still gathers the company that is about to arrive: a
// request reaching the coalescer inside another's quiet gap travels in its
// group, and the gap, not the window, closes it. This is what brings callers
// that were answered together back into one group.
func TestCoalesceQuietGapGathersCompany(t *testing.T) {
	const gap = 200 * time.Millisecond // stretched so that "inside the gap" is not a race
	run := &fakeRunner{classes: 3}
	s, clk := startPolicyServer(t, run, 2,
		Options{MaxBatch: 4, BatchWindow: 5 * time.Second, Timeout: 30 * time.Second},
		func(s *Server) { s.gap = gap })
	teachIdle(t, s, clk)
	before := closes(s)
	accepted, batches := s.Stats().Accepted, s.Stats().Batches

	start := time.Now()
	waitFirst := startPredicts(t, s, 2*time.Second, ringGraph(4, 2))
	waitFor(t, "the coalescer to hold the first request", func() bool {
		return s.Stats().Accepted == accepted+1 && len(s.queue) == 0
	})
	waitSecond := startPredicts(t, s, 2*time.Second, ringGraph(5, 2))
	waitFirst()
	waitSecond()
	if d := time.Since(start); d < gap {
		t.Errorf("the pair was answered after %v, before the %v gap was over", d, gap)
	}

	after := closes(s)
	if got := after[closeIdle] - before[closeIdle]; got != 1 || after[closeWindow] != 0 {
		t.Errorf("closes %v -> %v, want one more idle close and no window close", before, after)
	}
	if got := s.Stats().Batches - batches; got != 1 {
		t.Errorf("two requests inside one quiet gap ran as %d batches, want 1", got)
	}
	run.mu.Lock()
	last := run.sizes[len(run.sizes)-1]
	run.mu.Unlock()
	if last != 2 {
		t.Errorf("the group reached the runner with %d graphs, want 2", last)
	}
}
