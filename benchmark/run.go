package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// setupRepeats is how many times a run sets the workload up. Set-up is a few
// hundred milliseconds of work, too short for one reading to be steady, so
// setup_s is the median of this many; the last set-up is the one measured on.
const setupRepeats = 3

// probeShare is the share of -seconds each timed probe may take.
const probeShare = 0.005

// instance is a set-up workload.
type instance interface {
	// run drives the workload's load for one window.
	run(window time.Duration) runResult
	// counters reads the layers' exported counters (C metrics).
	counters() counters
	// check holds the workload's end-of-window invariants.
	check() error
	close()
	probeEnv() probeEnv
	// recorder is the span recorder of a traced instance, nil otherwise.
	recorder() *recorder
	// sloLimit is the latency limit slo_miss_ratio counts against, 0 for none.
	sloLimit() time.Duration
}

var errUnknownWorkload = errors.New("unknown workload")

func setupWorkload(name string, seed uint64, traced bool) (instance, error) {
	if name == "train_rounds" {
		return setupTraining(seed, traced)
	}
	spec, ok := servingSpecs[name]
	if !ok {
		return nil, fmt.Errorf("%w %q", errUnknownWorkload, name)
	}
	return setupServing(spec, seed, traced)
}

// counters is one reading of the layers' exported counters. All fields are
// cumulative; a window's values are the difference of two readings.
type counters struct {
	batches, responded, rejected, expired  int64
	phaseCollate, phaseForward, phaseOther time.Duration
	kernels, flops, bytesMoved             int64
	chunksDispatched, chunksInline         int64
	poolHits, poolMisses                   int64
	poolParkedBytes                        int64 // a level, not cumulative
	mallocs                                uint64
	gcCycles                               uint32
	gcPause                                time.Duration
	jobs, evictions, rejoins               int64
}

// readProcessCounters reads the process-wide layers: worker pool, tensor
// pool, Go runtime.
func readProcessCounters() counters {
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	pool := tensor.Pool()
	return counters{
		chunksDispatched: parallel.ChunksDispatched(),
		chunksInline:     parallel.ChunksInline(),
		poolHits:         pool.Hits,
		poolMisses:       pool.Misses,
		poolParkedBytes:  pool.Bytes,
		mallocs:          mem.Mallocs,
		gcCycles:         mem.NumGC,
		gcPause:          time.Duration(mem.PauseTotalNs),
	}
}

// counterMetrics turns two readings around a window of ops operations into
// the C metrics.
func counterMetrics(m map[string]float64, before, after counters, ops int) {
	perOp := func(d float64) float64 {
		if ops == 0 {
			return 0
		}
		return d / float64(ops)
	}
	batches := after.batches - before.batches
	m["serve.batches"] = float64(batches)
	if batches > 0 {
		served := (after.responded - before.responded) - (after.expired - before.expired)
		m["serve.batch_size_mean"] = float64(served) / float64(batches)
	}
	m["serve.rejected"] = float64(after.rejected - before.rejected)
	m["serve.expired"] = float64(after.expired - before.expired)
	m["serve.phase_collate_s"] = (after.phaseCollate - before.phaseCollate).Seconds()
	m["serve.phase_forward_s"] = (after.phaseForward - before.phaseForward).Seconds()
	m["serve.phase_other_s"] = (after.phaseOther - before.phaseOther).Seconds()
	m["device.kernels_per_op"] = perOp(float64(after.kernels - before.kernels))
	m["device.flops_per_op"] = perOp(float64(after.flops - before.flops))
	m["device.bytes_per_op"] = perOp(float64(after.bytesMoved - before.bytesMoved))
	m["parallel.chunks_dispatched_per_op"] = perOp(float64(after.chunksDispatched - before.chunksDispatched))
	m["parallel.chunks_inline_per_op"] = perOp(float64(after.chunksInline - before.chunksInline))
	if gets := (after.poolHits - before.poolHits) + (after.poolMisses - before.poolMisses); gets > 0 {
		m["tensor.pool_hit_ratio"] = float64(after.poolHits-before.poolHits) / float64(gets)
	}
	m["tensor.pool_parked_mb"] = float64(after.poolParkedBytes) / (1 << 20)
	m["runtime.mallocs_per_op"] = perOp(float64(after.mallocs - before.mallocs))
	m["runtime.gc_cycles"] = float64(after.gcCycles - before.gcCycles)
	m["runtime.gc_pause_ms"] = ms(after.gcPause - before.gcPause)
	m["fleet.jobs"] = float64(after.jobs - before.jobs)
	m["fleet.evictions"] = float64(after.evictions - before.evictions)
	m["fleet.rejoins"] = float64(after.rejoins - before.rejoins)
}

// result is what one run of one workload reports: the last line of its
// standard output, as JSON.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runConfig is one run's settings.
type runConfig struct {
	workload string
	seed     uint64
	window   time.Duration
	traced   bool
	// setups overrides setupRepeats when positive (the tests' smoke runs).
	setups int
	// traceOut, when set, receives the traced window's spans as Chrome-trace JSON.
	traceOut string
	// log receives the human-readable metric lines.
	log io.Writer
}

// retainedHeapMB is the heap still in use after a forced collection: what the
// program holds on to (tape caches, pools, the corpus), free of the garbage a
// collection cycle happened to leave behind.
func retainedHeapMB() float64 {
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return float64(mem.HeapAlloc) / (1 << 20)
}

// tally counts a window's operations.
func tally(res runResult) (attempted, failed int) {
	for _, s := range res.samples {
		if !s.ok {
			failed++
		}
	}
	return len(res.samples), failed
}

// runEndToEnd is a --trace 0 run: set up setupRepeats times, then measure
// one window with nothing of the harness inside the program.
func runEndToEnd(cfg runConfig) (result, error) {
	repeats := cfg.setups
	if repeats <= 0 {
		repeats = setupRepeats
	}
	var inst instance
	var setups []float64
	for i := 0; i < repeats; i++ {
		if inst != nil {
			inst.close()
			inst = nil
			// Hand the previous set-up's memory back before timing the next,
			// so each set-up starts from the same heap.
			debug.FreeOSMemory()
		}
		start := time.Now()
		var err error
		inst, err = setupWorkload(cfg.workload, cfg.seed, false)
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer inst.close()

	res := inst.run(cfg.window)
	attempted, failed := tally(res)
	if attempted == failed {
		return result{}, fmt.Errorf("no operation of %d succeeded in the window", attempted)
	}
	est := estimate(parts(res.marks, res.samples, cfg.window))
	values := map[string]float64{
		"setup_s":        median(setups),
		"throughput_rps": est.throughput,
		"latency_p50_ms": est.p50,
		"latency_p99_ms": est.p99,
		"cpu_ms_per_op":  est.cpuPerOp,
	}
	fmt.Fprintf(cfg.log, "# %s seed=%d window=%s operations=%d failed=%d set-ups=%d\n",
		cfg.workload, cfg.seed, cfg.window, attempted, failed, len(setups))
	out := report(cfg.log, endToEnd, values)
	out.Attempted, out.Failed = attempted, failed
	out.Correct = failed == 0 && res.err == nil
	if res.err != nil {
		fmt.Fprintf(cfg.log, "INCORRECT: %v\n", res.err)
	}
	if err := inst.check(); err != nil {
		out.Correct = false
		fmt.Fprintf(cfg.log, "INCORRECT: %v\n", err)
	}
	return out, nil
}

// runTraced is a --trace 1 run. The window is split in two: an untraced half
// on a plain instance (the C counts, and the base of trace.overhead_ratio),
// then a traced half on a second instance built with the wrappers installed
// (the T metrics). Bounded probes (P) follow.
func runTraced(cfg runConfig) (result, error) {
	half := cfg.window / 2
	values := map[string]float64{}

	plain, err := setupWorkload(cfg.workload, cfg.seed, false)
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	host0 := readHostCPU()
	c0 := plain.counters()
	base := plain.run(half)
	c1 := plain.counters()
	attempted, failed := tally(base)
	counterMetrics(values, c0, c1, attempted-failed)
	if values["runtime.peak_rss_mb"], err = peakRSSMB(); err != nil {
		return result{}, err
	}
	values["runtime.retained_heap_mb"] = retainedHeapMB()
	checkErr := plain.check()
	plain.close()
	if base.err != nil {
		checkErr = base.err
	}
	// The plain instance's heap (its tape caches above all) goes back before
	// the traced one is built, so both halves run in a heap of the same size.
	debug.FreeOSMemory()

	inst, err := setupWorkload(cfg.workload, cfg.seed, true)
	if err != nil {
		return result{}, fmt.Errorf("traced set-up: %w", err)
	}
	opened := time.Since(inst.recorder().epoch)
	traced := inst.run(half)
	window := inst.recorder().finished(opened)
	host1 := readHostCPU()
	tAttempted, tFailed := tally(traced)
	attempted, failed = attempted+tAttempted, failed+tFailed
	if traced.err != nil {
		checkErr = traced.err
	}
	if err := inst.check(); err != nil {
		checkErr = err
	}
	env, limit := inst.probeEnv(), inst.sloLimit()
	inst.close()

	ts := analyse(window)
	replicas := float64(serveReplicas)
	values["http.roundtrip_overhead_ms"] = ts.roundtripMS
	values["serve.handler_ms"] = ts.handlerMS
	values["serve.handler_self_ms"] = ts.handlerSelfMS
	values["serve.queue_wait_ms"] = ts.queueWaitMS
	values["serve.respond_ms"] = ts.respondMS
	values["serve.busy_ratio"] = ts.busy.Seconds() / (replicas * half.Seconds())
	values["fw.collate_ms"] = ts.collateMS
	values["fw.collate_us_per_graph"] = ts.collateUSPerGraph
	values["models.forward_ms"] = ts.forwardMS
	values["models.forward_us_per_graph"] = ts.forwardUSPerGraph
	values["models.forward_ms_per_request"] = ts.forwardPerRequestMS
	values["fleet.run_batch_ms"] = ts.runBatchMS
	values["fleet.wire_ms"] = ts.wireMS
	values["trace.request_ms"] = ts.requestMS
	if ts.requestMS > 0 {
		values["trace.selftime_sum_ratio"] = ts.selfSumMS / ts.requestMS
	}
	if r := estimate(parts(traced.marks, traced.samples, half)).throughput; r > 0 {
		values["trace.overhead_ratio"] = estimate(parts(base.marks, base.samples, half)).throughput / r
	}

	// loadgen: both halves are the same generator; the untraced half is the
	// one whose latencies describe the program.
	lat := latenciesMS(base.samples)
	lags := sortedCopy(base.lagsMS)
	values["loadgen.sent"] = float64(len(base.samples))
	values["loadgen.inflight_max"] = float64(base.inflightMax)
	values["loadgen.lag_p99_ms"] = percentile(lags, 99)
	values["loadgen.lag_max_ms"] = percentile(lags, 100)
	values["loadgen.latency_p99_run_ms"] = percentile(lat, 99)
	values["loadgen.latency_p99_9_ms"] = percentile(lat, 99.9)
	values["loadgen.latency_max_ms"] = percentile(lat, 100)
	if limit > 0 {
		missed := 0
		for _, s := range base.samples {
			if !s.ok || s.lat > limit {
				missed++
			}
		}
		values["loadgen.slo_miss_ratio"] = float64(missed) / float64(len(base.samples))
	}
	values["loadgen.fail_ratio"] = float64(failed) / float64(attempted)
	values["loadgen.host_steal_ratio"] = stealRatio(host0, host1)
	if values["loadgen.lag_max_ms"] > 100 || values["loadgen.host_steal_ratio"] > 0.05 {
		values["loadgen.disturbed"] = 1
	}
	for k, v := range base.extra {
		values[k] = v
	}

	// The probes call the layers directly; the servers are gone and their
	// heap returned, so a probe is not timed inside another run's garbage.
	debug.FreeOSMemory()
	probes, err := runProbes(env, time.Duration(float64(cfg.window)*probeShare))
	if err != nil {
		return result{}, err
	}
	for k, v := range probes {
		values[k] = v
	}

	if cfg.traceOut != "" {
		if err := writeTraceFile(cfg.traceOut, window); err != nil {
			return result{}, err
		}
	}
	fmt.Fprintf(cfg.log, "# %s seed=%d traced: halves=%s operations=%d failed=%d spans=%d requests-with-spans=%d batches=%d\n",
		cfg.workload, cfg.seed, half, attempted, failed, len(window), ts.requests, ts.batches)
	out := report(cfg.log, perLayer, values)
	out.Attempted, out.Failed = attempted, failed
	out.Correct = failed == 0 && checkErr == nil
	if checkErr != nil {
		fmt.Fprintf(cfg.log, "INCORRECT: %v\n", checkErr)
	}
	return out, nil
}

func writeTraceFile(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeChromeTrace(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// report prints every metric of defs by name with its unit and returns them
// as a result. A metric the run did not produce reads 0. JSON cannot carry a
// non-finite value, so one is flagged and reported as 0.
func report(w io.Writer, defs []metricDef, values map[string]float64) result {
	out := result{Metrics: make(map[string]metric, len(defs))}
	for _, d := range defs {
		v := values[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(w, "%-36s non-finite (%v), reported as 0\n", d.Name, v)
			v = 0
		}
		fmt.Fprintf(w, "%-36s %14.6g %s\n", d.Name, v, d.Unit)
		out.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	return out
}

func runWorkload(cfg runConfig) (result, error) {
	if cfg.traced {
		return runTraced(cfg)
	}
	return runEndToEnd(cfg)
}
