package main

import (
	"encoding/json"
	"io"
)

// metricDef is one row of BENCHMARK.json. The tables below are the single
// source the harness prints from and -compare judges by; a test holds
// BENCHMARK.json to them.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the base by which the metric may worsen
}

// workloadDef names a workload and the reason it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadDefs = []workloadDef{
	{"http_small", "2 closed-loop HTTP clients, eager GCN/PyG, ENZYMES: batches stay at 2, so linger, JSON, HTTP and per-batch fixed cost dominate; a kernel change barely shows"},
	{"batch_uniform", "64 in-process callers, compiled GCN/PyG, one graph shape: full batches and tape-cache hits, so forward replay dominates and retained heap is the tape cache; a coalescer change should not show"},
	{"fleet_open", "Poisson 300 req/s through coordinator, loopback RPC and an eager GCN/DGL worker, mixed-size DD graphs: real queueing, the wire hop and DGL collation"},
	{"train_rounds", "one training epoch each of GCN/PyG, GCN/DGL and GAT/PyG per round on ENZYMES: forward, backward, optimiser, loader and eval on the kernels serving only replays forward"},
}

// endToEnd are the metrics a user of the system sees, on the wall clock. An
// operation is a request, or a training round in train_rounds; every metric
// is defined, and never 0, on every workload.
//
// Every bound is the largest a manifest may carry. The host this was sized on
// (2 shared vCPUs) changes speed by +-20 % for minutes at a time: across ten
// runs the spread of a CPU-bound metric (batch_uniform, train_rounds) is 8 to
// 17 % of its median however the window is cut, so nothing tighter would hold.
// -compare judges several sets by their own spread instead; see README.md.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_rps", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p99_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
}

// perLayer are the single-layer metrics of a traced run, prefixed with the
// module they describe. T = from the traced window's spans, C = a count read
// from an exported accessor over the untraced window, P = a bounded probe
// calling the layer directly on the workload's corpus. A metric of a layer
// the workload does not run reads 0.
var perLayer = []metricDef{
	// loadgen: validity of every serving number.
	{Name: "loadgen.sent", Unit: "count", Better: "higher"},
	{Name: "loadgen.inflight_max", Unit: "count", Better: "lower"},
	{Name: "loadgen.lag_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.lag_max_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.latency_p99_run_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.latency_p99_9_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.latency_max_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.slo_miss_ratio", Unit: "ratio", Better: "lower"},
	{Name: "loadgen.fail_ratio", Unit: "ratio", Better: "lower"},
	{Name: "loadgen.host_steal_ratio", Unit: "ratio", Better: "lower"},
	{Name: "loadgen.disturbed", Unit: "count", Better: "lower"},
	// http, serve.
	{Name: "http.roundtrip_overhead_ms", Unit: "ms", Better: "lower"},    // T
	{Name: "serve.handler_ms", Unit: "ms", Better: "lower"},              // T
	{Name: "serve.handler_self_ms", Unit: "ms", Better: "lower"},         // T: handler span minus what its batch spans cover
	{Name: "serve.decode_us", Unit: "us", Better: "lower"},               // P
	{Name: "serve.queue_wait_ms", Unit: "ms", Better: "lower"},           // T
	{Name: "serve.respond_ms", Unit: "ms", Better: "lower"},              // T
	{Name: "serve.batch_size_mean", Unit: "count", Better: "higher"},     // C
	{Name: "serve.batches", Unit: "count", Better: "lower"},              // C
	{Name: "serve.rejected", Unit: "count", Better: "lower"},             // C
	{Name: "serve.expired", Unit: "count", Better: "lower"},              // C
	{Name: "serve.phase_collate_s", Unit: "s", Better: "lower"},          // C
	{Name: "serve.phase_forward_s", Unit: "s", Better: "lower"},          // C
	{Name: "serve.phase_other_s", Unit: "s", Better: "lower"},            // C
	{Name: "serve.busy_ratio", Unit: "ratio", Better: "lower"},           // T
	{Name: "graph.validate_us", Unit: "us", Better: "lower"},             // P
	{Name: "fw.collate_ms", Unit: "ms", Better: "lower"},                 // T
	{Name: "fw.collate_us_per_graph", Unit: "us", Better: "lower"},       // T
	{Name: "fw.collate_pyg_us_b32", Unit: "us", Better: "lower"},         // P
	{Name: "fw.collate_dgl_us_b32", Unit: "us", Better: "lower"},         // P
	{Name: "fw.batch_bytes", Unit: "B", Better: "lower"},                 // P
	{Name: "models.forward_ms", Unit: "ms", Better: "lower"},             // T
	{Name: "models.forward_us_per_graph", Unit: "us", Better: "lower"},   // T
	{Name: "models.forward_ms_per_request", Unit: "ms", Better: "lower"}, // T: forward span time one request waits on
	{Name: "models.eager_ms_b32", Unit: "ms", Better: "lower"},           // P
	{Name: "models.compiled_hit_ms_b32", Unit: "ms", Better: "lower"},    // P
	{Name: "models.compiled_miss_ms_b32", Unit: "ms", Better: "lower"},   // P
	{Name: "models.compiled_tapes", Unit: "count", Better: "lower"},      // P
	{Name: "models.tape_mb", Unit: "MB", Better: "lower"},                // P
	// tensor, device, parallel.
	{Name: "tensor.matmul_gflops", Unit: "GFLOP/s", Better: "higher"},           // P
	{Name: "tensor.gather_gbps", Unit: "GB/s", Better: "higher"},                // P
	{Name: "tensor.scatter_gbps", Unit: "GB/s", Better: "higher"},               // P
	{Name: "tensor.gspmm_gbps", Unit: "GB/s", Better: "higher"},                 // P
	{Name: "tensor.pool_hit_ratio", Unit: "ratio", Better: "higher"},            // C
	{Name: "tensor.pool_parked_mb", Unit: "MB", Better: "lower"},                // C
	{Name: "device.kernels_per_op", Unit: "count", Better: "lower"},             // C, computed
	{Name: "device.flops_per_op", Unit: "count", Better: "lower"},               // C, computed
	{Name: "device.bytes_per_op", Unit: "B", Better: "lower"},                   // C, computed
	{Name: "parallel.chunks_dispatched_per_op", Unit: "count", Better: "lower"}, // C
	{Name: "parallel.chunks_inline_per_op", Unit: "count", Better: "lower"},     // C
	// rpc, fleet.
	{Name: "rpc.encode_job_us_b2", Unit: "us", Better: "lower"},  // P
	{Name: "rpc.decode_job_us_b2", Unit: "us", Better: "lower"},  // P
	{Name: "rpc.job_bytes_b2", Unit: "B", Better: "lower"},       // P
	{Name: "rpc.encode_job_us_b32", Unit: "us", Better: "lower"}, // P
	{Name: "rpc.decode_job_us_b32", Unit: "us", Better: "lower"}, // P
	{Name: "rpc.job_bytes_b32", Unit: "B", Better: "lower"},      // P
	{Name: "rpc.encode_row_us", Unit: "us", Better: "lower"},     // P
	{Name: "rpc.decode_row_us", Unit: "us", Better: "lower"},     // P
	{Name: "fleet.run_batch_ms", Unit: "ms", Better: "lower"},    // T
	{Name: "fleet.wire_ms", Unit: "ms", Better: "lower"},         // T
	{Name: "fleet.jobs", Unit: "count", Better: "lower"},         // C
	{Name: "fleet.evictions", Unit: "count", Better: "lower"},    // C
	{Name: "fleet.rejoins", Unit: "count", Better: "lower"},      // C
	// ag, optim, loader, train: one hand-run training step, and the training
	// workload's epoch times per configuration.
	{Name: "ag.forward_train_ms", Unit: "ms", Better: "lower"},          // P
	{Name: "ag.backward_ms", Unit: "ms", Better: "lower"},               // P
	{Name: "optim.step_ms", Unit: "ms", Better: "lower"},                // P
	{Name: "loader.collate_ms_pyg", Unit: "ms", Better: "lower"},        // P
	{Name: "loader.collate_ms_dgl", Unit: "ms", Better: "lower"},        // P
	{Name: "train.eval_ms", Unit: "ms", Better: "lower"},                // P
	{Name: "train.step_share_forward", Unit: "ratio", Better: "lower"},  // P
	{Name: "train.step_share_backward", Unit: "ratio", Better: "lower"}, // P
	{Name: "train.epoch_s_gcn_pyg", Unit: "s", Better: "lower"},
	{Name: "train.epoch_s_gcn_dgl", Unit: "s", Better: "lower"},
	{Name: "train.epoch_s_gat_pyg", Unit: "s", Better: "lower"},
	// ckpt, costmodel.
	{Name: "ckpt.save_ms", Unit: "ms", Better: "lower"},               // P
	{Name: "ckpt.load_ms", Unit: "ms", Better: "lower"},               // P
	{Name: "ckpt.bytes", Unit: "B", Better: "lower"},                  // P
	{Name: "costmodel.extract_us_b32", Unit: "us", Better: "lower"},   // P
	{Name: "costmodel.predict_batch_us", Unit: "us", Better: "lower"}, // P
	// runtime, trace.
	{Name: "runtime.mallocs_per_op", Unit: "count", Better: "lower"},    // C
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},         // C
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},          // C
	{Name: "runtime.peak_rss_mb", Unit: "MB", Better: "lower"},          // C
	{Name: "runtime.retained_heap_mb", Unit: "MB", Better: "lower"},     // C: heap in use after a forced collection at window end
	{Name: "trace.request_ms", Unit: "ms", Better: "lower"},             // T: mean request span in the traced window
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},      // untraced rate over traced rate
	{Name: "trace.selftime_sum_ratio", Unit: "ratio", Better: "higher"}, // per-request self times over mean request latency; 1 when spans nest
}

// runSeconds is the window length the manifest asks the driver for; see the
// time budget in README.md.
const runSeconds = 20

// writeManifest writes BENCHMARK.json from the tables above:
//
//	go run ./benchmark -manifest > BENCHMARK.json
func writeManifest(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloadDefs,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	})
}
