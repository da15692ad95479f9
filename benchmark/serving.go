package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/datasets"
	"repro/internal/device"
	"repro/internal/fleet"
	"repro/internal/fw"
	"repro/internal/fw/dglb"
	"repro/internal/fw/pygeo"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/profile"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// Serving settings are gnnserve's defaults, so the numbers describe what
// ships (see cmd/gnnserve), but for the request timeout: see failLatency.
const (
	serveReplicas = 2
	serveMaxBatch = 32
)

func serveOptions(numFeatures int) serve.Options {
	return serve.Options{
		MaxBatch:    serveMaxBatch,
		QueueDepth:  256,
		BatchWindow: 2 * time.Millisecond,
		Timeout:     failLatency,
		NumFeatures: numFeatures,
	}
}

// modelConfig is the model configuration cmd/gnnserve and cmd/gnnworker build.
func modelConfig(d *datasets.Dataset) models.Config {
	return models.Config{
		Task: models.GraphClassification, In: d.NumFeatures, Hidden: 64, Out: 64,
		Classes: d.NumClasses, Layers: 4, Heads: 8, Kernels: 2, LearnEps: true, Seed: 1,
	}
}

// transport is how requests reach the server.
type transport int

const (
	overPredict transport = iota // (*serve.Server).Predict, in process
	overHTTP                     // POST /predict on keep-alive loopback connections
	overFleet                    // Predict on a coordinator that ships jobs to a worker over loopback RPC
)

// corpusSeed pins the synthetic ENZYMES and DD generators. Their totals move
// with the generator seed (nodes by +-3 % on ENZYMES, +-6 % on DD at this
// scale), which is as much as a bound allows a metric to move, so the datasets
// are fixed, as the real ones are, and -seed drives what a run does with them:
// the walk order, the arrival schedule, the fold split and the shuffle.
const corpusSeed = 1

// servingSpec is what distinguishes the three serving workloads.
type servingSpec struct {
	corpus    func(seed uint64) *datasets.Dataset
	backend   func() fw.Backend
	compiled  bool // compiled f64 replicas in place of eager ones
	transport transport
	// clients > 0 makes a closed loop of that many callers; otherwise rate is
	// the open loop's Poisson arrival rate per second.
	clients int
	rate    float64
	// slo is the latency limit loadgen.slo_miss_ratio is counted against.
	slo time.Duration
	// warmup is how many requests run before a window may open.
	warmup int
}

var servingSpecs = map[string]servingSpec{
	"http_small": {
		corpus:    func(uint64) *datasets.Dataset { return datasets.Enzymes(datasets.Options{Seed: corpusSeed}) },
		backend:   func() fw.Backend { return pygeo.New() },
		transport: overHTTP,
		clients:   2,
		slo:       25 * time.Millisecond,
		warmup:    64,
	},
	"batch_uniform": {
		corpus:    uniformCorpus,
		backend:   func() fw.Backend { return pygeo.New() },
		compiled:  true,
		transport: overPredict,
		clients:   64,
		slo:       150 * time.Millisecond,
		warmup:    640,
	},
	"fleet_open": {
		corpus:    func(uint64) *datasets.Dataset { return datasets.DD(datasets.Options{Seed: corpusSeed, Scale: 0.2}) },
		backend:   func() fw.Backend { return dglb.New() },
		transport: overFleet,
		rate:      300,
		slo:       50 * time.Millisecond,
		warmup:    64,
	},
}

// uniformCorpus builds 256 graphs of one shape: a 64-node circulant with 9
// arcs into every node (itself and four neighbours either side), 18 seeded
// random features, 6 classes. One shape means a compiled replica sees one
// tape signature per batch size.
func uniformCorpus(seed uint64) *datasets.Dataset {
	const graphs, nodes, feat, classes = 256, 64, 18, 6
	rng := rand.New(rand.NewPCG(seed, 0x756e69666f726d))
	d := &datasets.Dataset{Name: "UNIFORM", NumClasses: classes, NumFeatures: feat}
	for i := 0; i < graphs; i++ {
		g := &graph.Graph{NumNodes: nodes, X: tensor.New(nodes, feat), Label: i % classes}
		for v := 0; v < nodes; v++ {
			for off := -4; off <= 4; off++ {
				g.Src = append(g.Src, (v+off+nodes)%nodes)
				g.Dst = append(g.Dst, v)
			}
		}
		for j := range g.X.Data {
			g.X.Data[j] = rng.NormFloat64()
		}
		d.Graphs = append(d.Graphs, g)
	}
	return d
}

// serving is one set-up serving workload: corpus, reference answers, a
// running server and a way to call it.
type serving struct {
	spec  servingSpec
	seed  uint64
	data  *datasets.Dataset
	want  []serve.Prediction
	order []int
	next  atomic.Int64 // position in order of the next request

	model models.Model
	be    fw.Backend
	devs  []*device.Device
	srv   *serve.Server
	call  func(ctx context.Context, i, req int) (serve.Prediction, error)
	rec   *recorder

	// failure is why the first failed request failed, for the run's report.
	failOnce sync.Once
	failure  error

	worker *fleet.Worker
	mgr    *fleet.Manager
	// teardown runs in reverse order on close.
	teardown []func()
}

// referenceAnswers computes every corpus graph's logits alone, through the
// eager path: what every served response must reproduce.
func referenceAnswers(m models.Model, graphs []*graph.Graph) []serve.Prediction {
	dev := device.Default()
	want := make([]serve.Prediction, len(graphs))
	for i, g := range graphs {
		b := m.Backend().Batch([]*graph.Graph{g}, dev)
		logits := models.Infer(m, b, dev)
		want[i] = serve.Prediction{
			Class:  tensor.ArgMaxRows(logits)[0],
			Logits: append([]float64(nil), logits.Row(0)...),
		}
		b.Release(dev)
	}
	return want
}

// sameAnswer holds when got names the reference class and every logit is
// within 1e-9 relative of the reference.
func sameAnswer(got, want serve.Prediction) bool {
	if got.Class != want.Class || len(got.Logits) != len(want.Logits) {
		return false
	}
	for i, w := range want.Logits {
		g := got.Logits[i]
		if !(math.Abs(g-w) <= 1e-9*math.Max(math.Abs(g), math.Abs(w))+1e-300) {
			return false
		}
	}
	return true
}

// setupServing builds the corpus, the model, the reference answers and the
// server, and warms it up. With a recorder the replicas, the runner and the
// HTTP handler are wrapped; without one nothing of the harness sits inside
// the server.
func setupServing(spec servingSpec, seed uint64, traced bool) (*serving, error) {
	s := &serving{spec: spec, seed: seed}
	s.data = spec.corpus(seed)
	s.order = walkOrder(seed, len(s.data.Graphs))
	s.be = spec.backend()
	s.model = models.New("GCN", s.be, modelConfig(s.data))
	s.want = referenceAnswers(s.model, s.data.Graphs)
	if traced {
		rec, err := newRecorder(s.data.Graphs)
		if err != nil {
			return nil, err
		}
		s.rec = rec
	}

	reps := make([]serve.Replica, serveReplicas)
	for i := range reps {
		dev := device.New(fmt.Sprintf("cuda:%d", i), device.RTX2080Ti())
		s.devs = append(s.devs, dev)
		if spec.compiled {
			reps[i] = serve.NewCompiledModelReplica(s.model, dev, tensor.F64)
		} else {
			reps[i] = serve.NewModelReplica(s.model, dev)
		}
	}
	if traced {
		reps = traceReplicas(reps, s.rec)
	}
	opt := serveOptions(s.data.NumFeatures)

	var err error
	switch spec.transport {
	case overPredict:
		s.srv = serve.New(reps, opt)
		s.teardown = append(s.teardown, s.shutdownServer)
		s.call = s.predict
	case overHTTP:
		s.srv = serve.New(reps, opt)
		s.teardown = append(s.teardown, s.shutdownServer)
		err = s.listenHTTP()
	case overFleet:
		err = s.startFleet(reps, opt)
	}
	if err != nil {
		s.close()
		return nil, err
	}
	if failed := s.warmUp(); failed > 0 {
		s.close()
		return nil, fmt.Errorf("%d of %d warm-up requests failed", failed, spec.warmup)
	}
	return s, nil
}

func (s *serving) predict(ctx context.Context, i, _ int) (serve.Prediction, error) {
	return s.srv.Predict(ctx, s.data.Graphs[i])
}

func (s *serving) shutdownServer() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.srv.Shutdown(ctx) // a drain that outlives 10 s shows as Accepted != Responded in check
}

// requestBody is the POST /predict body for one graph.
func requestBody(g *graph.Graph) ([]byte, error) {
	req := serve.PredictRequest{NumNodes: g.NumNodes, Src: g.Src, Dst: g.Dst, X: make([][]float64, g.NumNodes)}
	for v := range req.X {
		req.X[v] = g.X.Row(v)
	}
	return json.Marshal(req)
}

// listenHTTP serves srv.Handler() on a loopback port and points call at it
// through a client holding one keep-alive connection per closed-loop client.
func (s *serving) listenHTTP() error {
	bodies := make([][]byte, len(s.data.Graphs))
	for i, g := range s.data.Graphs {
		body, err := requestBody(g)
		if err != nil {
			return fmt.Errorf("encode corpus graph %d: %w", i, err)
		}
		bodies[i] = body
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	handler := s.srv.Handler()
	if s.rec != nil {
		handler = &tracedHandler{Handler: handler, rec: s.rec}
	}
	httpSrv := &http.Server{Handler: handler}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = httpSrv.Serve(ln) // returns ErrServerClosed on Shutdown
	}()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: s.spec.clients, MaxConnsPerHost: s.spec.clients}}
	// The listener stops before the server drains (teardown runs in reverse).
	s.teardown = append(s.teardown, func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(ctx)
		<-served
		client.CloseIdleConnections()
	})

	url := "http://" + ln.Addr().String() + "/predict"
	s.call = func(ctx context.Context, i, req int) (serve.Prediction, error) {
		hr, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(bodies[i]))
		if err != nil {
			return serve.Prediction{}, err
		}
		hr.Header.Set("Content-Type", "application/json")
		if req >= 0 {
			hr.Header.Set(requestHeader, strconv.Itoa(req))
		}
		resp, err := client.Do(hr)
		if err != nil {
			return serve.Prediction{}, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return serve.Prediction{}, err
		}
		if resp.StatusCode != http.StatusOK {
			return serve.Prediction{}, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
		}
		var pr serve.PredictResponse
		if err := json.Unmarshal(body, &pr); err != nil {
			return serve.Prediction{}, err
		}
		return serve.Prediction{Class: pr.Class, Logits: pr.Logits}, nil
	}
	return nil
}

// startFleet runs one fleet worker in this process behind a loopback RPC
// listener and a coordinator server dispatching to it.
func (s *serving) startFleet(reps []serve.Replica, opt serve.Options) error {
	hash, err := fleet.ModelHash(s.model.Params())
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.worker = fleet.NewWorker(reps, fleet.WorkerOptions{ModelHash: hash})
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = s.worker.Serve(ln) // nil after Close
	}()
	s.teardown = append(s.teardown, func() {
		_ = s.worker.Close()
		<-served
	})

	s.mgr = fleet.NewManager([]string{ln.Addr().String()}, fleet.Options{ExpectHash: hash})
	s.teardown = append(s.teardown, func() { _ = s.mgr.Close() })
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.mgr.Connect(ctx); err != nil {
		return err
	}
	var runner serve.Runner = s.mgr
	if s.rec != nil {
		runner = &tracedRunner{runBatch: s.mgr.RunBatch, rec: s.rec}
	}
	s.srv = serve.NewDispatch(runner, s.mgr.TotalPods(), opt)
	s.teardown = append(s.teardown, s.shutdownServer)
	s.call = s.predict
	return nil
}

func (s *serving) close() {
	for i := len(s.teardown) - 1; i >= 0; i-- {
		s.teardown[i]()
	}
	s.teardown = nil
}

// one issues the request for corpus graph i, charged from the instant due.
func (s *serving) one(m *meter, i int, due time.Time) sample {
	req := -1
	if s.rec != nil {
		req = s.rec.beginRequest(i, due)
	}
	got, err := s.call(context.Background(), i, req)
	end := time.Now()
	if s.rec != nil {
		s.rec.endRequest(i, req)
	}
	smp := sample{start: due.Sub(m.start), lat: end.Sub(due), ok: err == nil && sameAnswer(got, s.want[i])}
	if smp.ok {
		m.ok.Add(1)
		return smp
	}
	s.failOnce.Do(func() {
		if err == nil {
			err = fmt.Errorf("answered class %d logits %v, reference class %d logits %v", got.Class, got.Logits, s.want[i].Class, s.want[i].Logits)
		}
		s.failure = fmt.Errorf("first failed request (corpus graph %d, after %v): %w", i, smp.lat, err)
	})
	smp.lat = failLatency
	return smp
}

// nextGraph walks the corpus round-robin in the seeded order.
func (s *serving) nextGraph() int {
	return s.order[int((s.next.Add(1)-1)%int64(len(s.order)))]
}

// runResult is what one measurement window produced.
type runResult struct {
	samples     []sample
	marks       []mark
	lagsMS      []float64 // open loop: how late each request was sent
	inflightMax int
	// extra carries workload-specific per-layer values (the training
	// workload's per-configuration epoch times).
	extra map[string]float64
	// err reports a correctness failure that is not one operation's.
	err error
}

// closedLoop keeps clients callers busy, each sending its next request when
// the previous one returns, until the window closes or limit requests
// (limit > 0) have been issued.
func (s *serving) closedLoop(m *meter, clients int, window time.Duration, limit int) runResult {
	perClient := make([][]sample, clients)
	var issued atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(m.start) < window {
				if n := issued.Add(1); limit > 0 && n > int64(limit) {
					return
				}
				perClient[c] = append(perClient[c], s.one(m, s.nextGraph(), time.Now()))
			}
		}()
	}
	wg.Wait()
	res := runResult{inflightMax: clients}
	for _, p := range perClient {
		res.samples = append(res.samples, p...)
	}
	return res
}

// openLoop sends requests on a seeded Poisson schedule whether or not
// earlier ones have returned, one goroutine per arrival, and times each from
// the instant it was due.
func (s *serving) openLoop(m *meter, window time.Duration) runResult {
	schedule := poissonSchedule(s.seed, s.spec.rate, window)
	res := runResult{samples: make([]sample, len(schedule)), lagsMS: make([]float64, len(schedule))}
	var inflight, inflightMax atomic.Int64
	var wg sync.WaitGroup
	for k, offset := range schedule {
		due := m.start.Add(offset)
		time.Sleep(time.Until(due))
		res.lagsMS[k] = ms(time.Since(due))
		i := s.nextGraph()
		wg.Add(1)
		go func() {
			defer wg.Done()
			if n := inflight.Add(1); n > inflightMax.Load() {
				inflightMax.Store(n) // a lost race under-reads by one; it is a gauge
			}
			res.samples[k] = s.one(m, i, due)
			inflight.Add(-1)
		}()
	}
	wg.Wait()
	res.inflightMax = int(inflightMax.Load())
	return res
}

// warmUp runs spec.warmup requests through the full path and returns how
// many failed. It is closed-loop for every workload: its job is to fill
// caches and finish lazy set-up, not to model traffic.
func (s *serving) warmUp() int {
	clients := s.spec.clients
	if clients == 0 {
		clients = serveReplicas
	}
	failed := 0
	for _, smp := range s.closedLoop(newMeter(), clients, time.Hour, s.spec.warmup).samples {
		if !smp.ok {
			failed++
		}
	}
	return failed
}

func (s *serving) run(window time.Duration) runResult {
	m := newMeter()
	ticked := make(chan struct{})
	go func() {
		defer close(ticked)
		m.tick(window)
	}()
	var res runResult
	if s.spec.clients > 0 {
		res = s.closedLoop(m, s.spec.clients, window, 0)
	} else {
		res = s.openLoop(m, window)
	}
	<-ticked
	res.marks = m.marks
	res.err = s.failure
	return res
}

// check holds the end-of-window invariants: every accepted request was
// answered, and the fleet neither evicted nor re-joined its worker.
func (s *serving) check() error {
	st := s.srv.Stats()
	if st.Accepted != st.Responded {
		return fmt.Errorf("server accepted %d requests and answered %d", st.Accepted, st.Responded)
	}
	if s.mgr != nil {
		if _, evictions, rejoins := s.mgr.Stats(); evictions != 0 || rejoins != 0 {
			return fmt.Errorf("fleet saw %d evictions and %d re-joins on a healthy loopback worker", evictions, rejoins)
		}
	}
	return nil
}

func (s *serving) counters() counters {
	c := readProcessCounters()
	st := s.srv.Stats()
	c.batches, c.responded, c.rejected, c.expired = st.Batches, st.Responded, st.Rejected, st.Expired
	c.phaseCollate = st.Phases.Get(profile.PhaseDataLoad)
	c.phaseForward = st.Phases.Get(profile.PhaseForward)
	c.phaseOther = st.Phases.Get(profile.PhaseOther)
	for _, d := range s.devs {
		ds := d.Stats()
		c.kernels += ds.Kernels
		c.flops += ds.Flops
		c.bytesMoved += ds.BytesMoved
	}
	if s.worker != nil {
		c.jobs = s.worker.JobsServed()
		_, c.evictions, c.rejoins = s.mgr.Stats()
	}
	return c
}

func (s *serving) probeEnv() probeEnv {
	return probeEnv{data: s.data, be: s.be, model: s.model, order: s.order}
}

func (s *serving) recorder() *recorder { return s.rec }

func (s *serving) sloLimit() time.Duration { return s.spec.slo }
