// Command gnnserve hosts a batched GNN inference server: single-graph
// prediction requests are coalesced into mini-batches through the selected
// framework's real collation path (so PyG-vs-DGL batching costs show up on
// the request path exactly as the paper shows them on the training path),
// run forward-only through a pool of model replicas, and answered per
// request.
//
//	gnnserve -model GCN -framework PyG -dataset ENZYMES -addr :8080
//
// Endpoints: POST /predict, GET /healthz, GET /metrics (serving, Go runtime,
// worker pool and per-replica device metrics from one registry), GET
// /debug/vars, GET /debug/pprof, POST /admin/reload (zero-downtime weight
// reload from the checkpoint source; SIGHUP triggers the same). The
// -collatebench flag instead measures offline collation throughput for
// capacity planning and exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/cmd/internal/boot"
	"repro/internal/costmodel"
	"repro/internal/datasets"
	"repro/internal/device"
	"repro/internal/fleet"
	"repro/internal/fw"
	"repro/internal/loader"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	modelName := flag.String("model", "GCN", "architecture: GCN|GAT|GraphSAGE|GIN|MoNet|GatedGCN")
	framework := flag.String("framework", "PyG", "framework: PyG|DGL")
	dataset := flag.String("dataset", "ENZYMES", "dataset fixing feature/class widths: ENZYMES|DD|MNIST")
	scale := flag.Float64("scale", 0.1, "dataset scale for the width probe and collate bench")
	replicas := flag.Int("replicas", 2, "forward-only model replicas")
	batch := flag.Int("batch", 32, "max graphs per forward batch")
	queueDepth := flag.Int("queue", 256, "bounded request-queue depth")
	window := flag.Duration("window", 2*time.Millisecond, "longest a request waits in the coalescer for company; spent in full only while the server is saturated, else a 250µs quiet gap (negative: never linger)")
	timeout := flag.Duration("timeout", time.Second, "default per-request deadline")
	dtype := flag.String("dtype", "", "compiled serving at this weight precision: f64|f32|q8 (empty = eager reference path)")
	checkpoint := flag.String("checkpoint", "", "optional parameter checkpoint to load (nn.Save format)")
	checkpointDir := flag.String("checkpoint-dir", "", "training checkpoint directory: the newest recoverable GNNCKPT2 file supplies the weights, and /admin/reload or SIGHUP re-reads it")
	workers := flag.String("workers", "", "comma-separated gnnworker addresses; enables coordinator mode (batches dispatch to the fleet instead of local replicas)")
	sloTarget := flag.Duration("slo-target", 0, "p99 latency objective over /predict; a rolling-window breach dumps the flight recorder (0 = SLO tracking off)")
	costmodelPath := flag.String("costmodel", "", "predictor JSON written by gnnpredict; arms predicted-latency admission control (429 or split for over-budget batches)")
	costmodelFit := flag.Bool("costmodel-fit", false, "fit the cost model at startup by sweeping the served model over the synthetic generators (alternative to -costmodel)")
	admissionBudget := flag.Duration("admission-budget", 0, "predicted-latency budget per dispatch batch (default: the -slo-target value)")
	flightDir := flag.String("flight-dir", "", "directory for flight-recorder dumps on eviction or SLO breach (empty = dumps disabled, GET /debug/flightrecorder still live)")
	collateBench := flag.Bool("collatebench", false, "measure offline collation throughput and exit")
	flag.Parse()
	if *checkpoint != "" && *checkpointDir != "" {
		fatal(errors.New("-checkpoint and -checkpoint-dir are mutually exclusive"))
	}

	be, err := boot.Backend(*framework)
	if err != nil {
		fatal(err)
	}
	d, err := boot.Dataset(*dataset, *scale)
	if err != nil {
		fatal(err)
	}

	if *collateBench {
		runCollateBench(be, d, *batch)
		return
	}

	// loadModel builds a fresh model and fills it from the configured
	// checkpoint source; start-up and every reload go through it.
	loadModel := func() (models.Model, error) {
		m := boot.NewModel(*modelName, be, d)
		path, err := boot.LoadWeights(m, *checkpoint, *checkpointDir)
		if path != "" {
			fmt.Printf("gnnserve: loaded weights from %s\n", path)
		}
		return m, err
	}
	m, err := loadModel()
	if err != nil {
		fatal(err)
	}

	// Cost-model admission control: a predictor comes either from a
	// gnnpredict fit on disk or from a startup sweep over the served model.
	if *costmodelPath != "" && *costmodelFit {
		fatal(errors.New("-costmodel and -costmodel-fit are mutually exclusive"))
	}
	var predictor serve.LatencyPredictor
	switch {
	case *costmodelPath != "":
		f, err := os.Open(*costmodelPath)
		if err != nil {
			fatal(err)
		}
		p, err := costmodel.ReadJSON(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		// A predictor fit for a different model or framework predicts the
		// wrong latencies; refuse to arm admission control with it.
		if (p.Model != "" && p.Model != *modelName) || (p.Framework != "" && p.Framework != *framework) {
			fatal(fmt.Errorf("cost model %s was fit for %s/%s, serving %s/%s",
				*costmodelPath, p.Model, p.Framework, *modelName, *framework))
		}
		predictor = p
	case *costmodelFit:
		samples := costmodel.Sweep(m, d.NumFeatures, costmodel.SweepOptions{})
		train, held := costmodel.Split(samples, 4)
		p, err := costmodel.Fit(train, costmodel.FitOptions{})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("gnnserve: cost model fit over %d sweep samples, held-out R² %.4f\n",
			len(train), costmodel.RSquared(p, held))
		predictor = p
	}
	if predictor != nil && *admissionBudget <= 0 && *sloTarget <= 0 {
		fatal(errors.New("admission control needs a budget: set -admission-budget or -slo-target"))
	}

	// One process-wide registry: serving counters, Go runtime stats, worker
	// pool occupancy and per-replica device counters all land on the same
	// GET /metrics scrape.
	reg := obs.Default()
	obs.RegisterRuntimeMetrics(reg)
	obs.RegisterPoolMetrics(reg)
	obs.RegisterTensorPoolMetrics(reg)
	// The observability spine: spans (stitched across the fleet in
	// coordinator mode), lifecycle events, and a flight recorder dumped on
	// eviction or SLO breach and served at GET /debug/flightrecorder.
	tracer := obs.NewTracer(0)
	events := obs.NewEventLog(0, nil)
	flight := obs.NewFlightRecorder(tracer, events, reg, obs.FlightOptions{
		Dir:         *flightDir,
		MinInterval: time.Second,
	})
	opt := serve.Options{
		MaxBatch:        *batch,
		QueueDepth:      *queueDepth,
		BatchWindow:     *window,
		Timeout:         *timeout,
		NumFeatures:     d.NumFeatures,
		Registry:        reg,
		Tracer:          tracer,
		Events:          events,
		Flight:          flight,
		SLOTarget:       *sloTarget,
		Predictor:       predictor,
		AdmissionBudget: *admissionBudget,
	}
	var srv *serve.Server
	var mgr *fleet.Manager
	var modeDesc string
	if *workers != "" {
		// Coordinator mode: the local model exists only to fingerprint the
		// weights every worker must serve; batches dispatch to the fleet.
		hash, err := fleet.ModelHash(m.Params())
		if err != nil {
			fatal(err)
		}
		// Register the device metric families even though the coordinator
		// hosts no devices: both modes then expose the identical collector
		// set, so dashboards and alerts never care which mode answered the
		// scrape.
		obs.RegisterDeviceMetrics(reg)
		mgr = fleet.NewManager(strings.Split(*workers, ","), fleet.Options{
			ExpectHash: hash,
			Registry:   reg,
			Tracer:     tracer,
			Events:     events,
			Flight:     flight,
			Predictor:  predictor,
		})
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err = mgr.Connect(ctx)
		cancel()
		if err != nil {
			fatal(err)
		}
		srv = serve.NewDispatch(mgr, mgr.TotalPods(), opt)
		modeDesc = fmt.Sprintf("coordinator over %d workers (%d pods, model hash %s)",
			len(strings.Split(*workers, ",")), mgr.TotalPods(), fleet.HashString(hash))
	} else {
		reps, devs, mode, err := boot.Replicas(m, *replicas, *dtype)
		if err != nil {
			fatal(err)
		}
		obs.RegisterDeviceMetrics(reg, devs...)
		srv = serve.New(reps, opt)
		modeDesc = fmt.Sprintf("%d replicas (%s)", *replicas, mode)
	}

	// reload builds a fresh model, fills it from the checkpoint source, and
	// swaps it behind every replica — zero downtime: in-flight batches finish
	// on the old weights, later batches see the new ones.
	reload := func() error {
		fresh, err := loadModel()
		if err != nil {
			return err
		}
		return srv.SwapModel(fresh)
	}
	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	mux.HandleFunc("POST /admin/reload", func(w http.ResponseWriter, r *http.Request) {
		if err := reload(); err != nil {
			http.Error(w, fmt.Sprintf("reload failed: %v", err), http.StatusInternalServerError)
			return
		}
		fmt.Fprintln(w, "reloaded")
	})

	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			if err := reload(); err != nil {
				fmt.Fprintf(os.Stderr, "gnnserve: SIGHUP reload failed: %v\n", err)
			} else {
				fmt.Println("gnnserve: SIGHUP reload complete")
			}
		}
	}()

	httpSrv := &http.Server{Addr: *addr, Handler: mux}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		// Stop the listener first, then drain accepted prediction requests
		// (in coordinator mode that waits for worker responses to stream
		// back), and only then drop the worker connections.
		httpSrv.Shutdown(shutdownCtx)
		srv.Shutdown(shutdownCtx)
		if mgr != nil {
			mgr.Close()
		}
	}()

	if predictor != nil {
		modeDesc += fmt.Sprintf(", admission budget %s", srv.Options().AdmissionBudget)
	}
	fmt.Printf("gnnserve: %s/%s (%s widths) on %s — %s, batch<=%d, queue %d, window %s\n",
		*modelName, be.Name(), d.Name, *addr, modeDesc, *batch, *queueDepth, *window)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
}

// runCollateBench measures the framework's batch-collation path in
// isolation over one loader epoch — the number the coalescing window and
// max batch size should be provisioned against.
func runCollateBench(be fw.Backend, d *datasets.Dataset, batch int) {
	dev := device.Default()
	l := loader.New(be, d, nil, loader.Options{BatchSize: batch, Device: dev})
	start := time.Now()
	batches, graphs := 0, 0
	for b := range l.Epoch() {
		batches++
		graphs += b.NumGraphs
		b.Release(dev)
	}
	elapsed := time.Since(start)
	perBatch := time.Duration(0)
	if batches > 0 {
		perBatch = elapsed / time.Duration(batches)
	}
	fmt.Printf("gnnserve collate bench: %s on %s — %d graphs in %d batches of <=%d in %s (%.1f graphs/s, %s/batch)\n",
		be.Name(), d.Name, graphs, batches, batch, elapsed.Round(time.Millisecond),
		float64(graphs)/elapsed.Seconds(), perBatch.Round(time.Microsecond))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "gnnserve: %v\n", err)
	os.Exit(1)
}
