// Command gnnworker hosts one fleet worker: a pool of forward-only model
// replicas served over the fleet RPC protocol to a gnnserve coordinator.
//
//	gnnworker -addr :9090 -model GCN -framework PyG -dataset ENZYMES -replicas 2
//
// The worker registers with the coordinator by protocol version and model
// checkpoint hash — a worker started with the wrong weights (or a skewed
// binary) is refused at connection time, loudly. Weight updates are done by
// restarting the worker with the new checkpoint: the coordinator evicts the
// dead worker, retries its in-flight jobs on survivors, and re-admits the
// restarted process after re-verifying its hash. -dtype f64 selects compiled
// serving tapes exactly as gnnserve does in single-process mode.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"repro/cmd/internal/boot"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	addr := flag.String("addr", ":9090", "fleet RPC listen address")
	id := flag.String("id", "", "worker id reported to the coordinator (default the listen address)")
	metricsAddr := flag.String("metrics-addr", "", "optional HTTP address serving GET /metrics and /healthz")
	modelName := flag.String("model", "GCN", "architecture: GCN|GAT|GraphSAGE|GIN|MoNet|GatedGCN")
	framework := flag.String("framework", "PyG", "framework: PyG|DGL")
	dataset := flag.String("dataset", "ENZYMES", "dataset fixing feature/class widths: ENZYMES|DD|MNIST")
	scale := flag.Float64("scale", 0.1, "dataset scale for the width probe")
	replicas := flag.Int("replicas", 2, "forward-only model replicas")
	pods := flag.Int("pods", 0, "max concurrent jobs (default one per replica); excess jobs are refused, not queued")
	dtype := flag.String("dtype", "", "f64 = compiled serving: each batch shape's forward tape is recorded once and replayed (empty = eager; f32 and q8 were removed)")
	checkpoint := flag.String("checkpoint", "", "optional parameter checkpoint to load (nn.Save format)")
	checkpointDir := flag.String("checkpoint-dir", "", "training checkpoint directory: the newest recoverable checkpoint supplies the weights")
	flightDir := flag.String("flight-dir", "", "directory for flight-recorder dumps on replica panic (empty = dumps disabled)")
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
	m := boot.NewModel(*modelName, be, d)
	path, err := boot.LoadWeights(m, *checkpoint, *checkpointDir)
	if err != nil {
		fatal(err)
	}
	if path != "" {
		fmt.Printf("gnnworker: loaded weights from %s\n", path)
	}

	hash, err := fleet.ModelHash(m.Params())
	if err != nil {
		fatal(err)
	}

	reg := obs.Default()
	obs.RegisterRuntimeMetrics(reg)
	obs.RegisterTensorPoolMetrics(reg)
	reps, devs, mode, err := boot.Replicas(m, *replicas, *dtype)
	if err != nil {
		fatal(err)
	}
	obs.RegisterDeviceMetrics(reg, devs...)

	// The worker carries the same observability spine as the coordinator:
	// a tracer whose per-job spans ship back over the wire for stitching, an
	// event log, and a flight recorder dumped on replica panics.
	tracer := obs.NewTracer(0)
	events := obs.NewEventLog(0, nil)
	flight := obs.NewFlightRecorder(tracer, events, reg, obs.FlightOptions{Dir: *flightDir})

	w := fleet.NewWorker(reps, fleet.WorkerOptions{
		ID:        *id,
		MaxPods:   *pods,
		ModelHash: hash,
		Registry:  reg,
		Tracer:    tracer,
		Events:    events,
		Flight:    flight,
	})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}

	if *metricsAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("GET /metrics", func(rw http.ResponseWriter, r *http.Request) {
			rw.Header().Set("Content-Type", "text/plain; version=0.0.4")
			reg.WritePrometheus(rw)
		})
		mux.HandleFunc("GET /healthz", func(rw http.ResponseWriter, r *http.Request) {
			fmt.Fprintln(rw, "ok")
		})
		// Same debug surface as the coordinator: pprof, registry snapshot,
		// flight recorder.
		serve.MountDebug(mux, reg, tracer, flight)
		go func() {
			if err := http.ListenAndServe(*metricsAddr, mux); err != nil {
				fmt.Fprintf(os.Stderr, "gnnworker: metrics server: %v\n", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		w.Close()
	}()

	fmt.Printf("gnnworker: %s/%s (%s widths) on %s — %d replicas (%s), pods<=%d, model hash %s\n",
		*modelName, be.Name(), d.Name, ln.Addr(), *replicas, mode, max(*pods, *replicas), fleet.HashString(hash))
	if err := w.Serve(ln); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "gnnworker: %v\n", err)
	os.Exit(1)
}
