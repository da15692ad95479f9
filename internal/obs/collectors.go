package obs

import (
	"runtime"

	"repro/internal/device"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// Collectors bridge the rest of the runtime into a Registry as callback
// series, read lazily at scrape time: Go runtime health (the host side of
// the paper's measurements), the simulated devices (the nvidia-smi side:
// Fig 4's peak memory, Fig 5's utilization inputs) and the worker pool.

// RegisterRuntimeMetrics registers Go runtime gauges and counters on r:
// goroutine count, heap bytes, and GC cycle/pause totals. Safe to call more
// than once on the same registry (callbacks are replaced).
func RegisterRuntimeMetrics(r *Registry) {
	r.GaugeFunc("go_goroutines", "Number of live goroutines.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	r.GaugeFunc("go_heap_alloc_bytes", "Bytes of allocated heap objects.",
		func() float64 { return float64(readMemStats().HeapAlloc) })
	r.GaugeFunc("go_heap_sys_bytes", "Bytes of heap memory obtained from the OS.",
		func() float64 { return float64(readMemStats().HeapSys) })
	r.CounterFunc("go_gc_cycles_total", "Completed GC cycles.",
		func() float64 { return float64(readMemStats().NumGC) })
	r.CounterFunc("go_gc_pause_seconds_total", "Cumulative GC stop-the-world pause time.",
		func() float64 { return float64(readMemStats().PauseTotalNs) / 1e9 })
}

func readMemStats() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

// RegisterDeviceMetrics registers per-device callback series (labeled by
// device name) for every given simulated accelerator: kernel, FLOP and
// byte-moved totals, the real and cost-model kernel clocks (the numerator of
// the paper's Eq. 5 utilization), and the allocator's current and peak bytes
// (the paper's Fig 4 nvidia-smi analogue). Device names must be unique
// within one registry.
func RegisterDeviceMetrics(r *Registry, devs ...*device.Device) {
	kernels := r.CounterVec("gnnlab_device_kernels_total", "Kernels launched on the simulated device.", "device")
	flops := r.CounterVec("gnnlab_device_flops_total", "Floating-point operations executed by kernels.", "device")
	bytesMoved := r.CounterVec("gnnlab_device_bytes_moved_total", "Bytes moved by kernels.", "device")
	active := r.CounterVec("gnnlab_device_active_seconds_total", "Real wall time spent inside kernels (Eq. 5 numerator).", "device")
	sim := r.CounterVec("gnnlab_device_sim_seconds_total", "Cost-model time of the same kernels.", "device")
	alloc := r.GaugeVec("gnnlab_device_alloc_bytes", "Currently allocated device memory.", "device")
	peak := r.GaugeVec("gnnlab_device_peak_bytes", "Allocator high-water mark since the last reset (Fig 4 analogue).", "device")
	for _, d := range devs {
		d := d
		kernels.Func(func() float64 { return float64(d.Stats().Kernels) }, d.Name)
		flops.Func(func() float64 { return float64(d.Stats().Flops) }, d.Name)
		bytesMoved.Func(func() float64 { return float64(d.Stats().BytesMoved) }, d.Name)
		active.Func(func() float64 { return d.Stats().ActiveTime.Seconds() }, d.Name)
		sim.Func(func() float64 { return d.Stats().SimTime.Seconds() }, d.Name)
		alloc.Func(func() float64 { return float64(d.Stats().AllocBytes) }, d.Name)
		peak.Func(func() float64 { return float64(d.Stats().PeakBytes) }, d.Name)
	}
}

// RegisterPoolMetrics registers the shared worker pool's occupancy series:
// configured width, chunks in flight, and cumulative dispatched/inline chunk
// counts.
func RegisterPoolMetrics(r *Registry) {
	r.GaugeFunc("gnnlab_pool_workers", "Configured parallel worker count.",
		func() float64 { return float64(parallel.Workers()) })
	r.GaugeFunc("gnnlab_pool_busy", "For chunks executing right now (pool occupancy).",
		func() float64 { return float64(parallel.Busy()) })
	r.CounterFunc("gnnlab_pool_chunks_dispatched_total", "Chunks handed to pool goroutines.",
		func() float64 { return float64(parallel.ChunksDispatched()) })
	r.CounterFunc("gnnlab_pool_chunks_inline_total", "Chunks executed inline on the submitting goroutine.",
		func() float64 { return float64(parallel.ChunksInline()) })
}

// RegisterTensorPoolMetrics registers the tensor buffer pool's counters: Gets
// served from a free list vs. fresh allocations, releases, the ones outside
// the pooled class range, parked buffers evicted above their class's recent
// high-water mark, and the bytes currently parked for reuse. A healthy
// steady state shows the hit counter advancing while the miss counter stays
// flat — each miss is a heap allocation on the hot path — and evictions
// moving only when the process's working set changes.
func RegisterTensorPoolMetrics(r *Registry) {
	r.CounterFunc("gnnlab_tensor_pool_hits_total", "Pooled tensor Gets served from a free list.",
		func() float64 { return float64(tensor.Pool().Hits) })
	r.CounterFunc("gnnlab_tensor_pool_misses_total", "Pooled tensor Gets that had to allocate.",
		func() float64 { return float64(tensor.Pool().Misses) })
	r.CounterFunc("gnnlab_tensor_pool_releases_total", "Tensors handed back to the pool.",
		func() float64 { return float64(tensor.Pool().Releases) })
	r.CounterFunc("gnnlab_tensor_pool_discards_total", "Releases outside the pooled class range, left to the garbage collector.",
		func() float64 { return float64(tensor.Pool().Discards) })
	r.CounterFunc("gnnlab_tensor_pool_evictions_total", "Parked buffers dropped above their class's high-water mark of the last two GC cycles.",
		func() float64 { return float64(tensor.Pool().Evictions) })
	r.CounterFunc("gnnlab_tensor_pool_zeroed_bytes_total", "Bytes pooled tensor Gets cleared in recycled buffers.",
		func() float64 { return float64(tensor.Pool().ZeroedBytes) })
	r.GaugeFunc("gnnlab_tensor_pool_free_bytes", "Bytes parked on the pool's free lists.",
		func() float64 { return float64(tensor.Pool().Bytes) })
}
