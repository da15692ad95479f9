package tensor

import (
	"sync/atomic"
	"testing"

	"repro/internal/parallel"
)

// Microbenchmarks for the kernels everything else is built on.

func benchPair(n, f int) (*Tensor, *Tensor) {
	g := NewRNG(1)
	return g.Randn(1, n, f), g.Randn(1, n, f)
}

func BenchmarkMatMul128(b *testing.B) { benchMatMul(b, 128) }
func BenchmarkMatMul512(b *testing.B) { benchMatMul(b, 512) }

func benchMatMul(b *testing.B, n int) {
	g := NewRNG(1)
	x := g.Randn(1, n, n)
	y := g.Randn(1, n, n)
	b.SetBytes(int64(8 * n * n * 3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(x, y)
	}
}

func BenchmarkMatMulTransposedForms(b *testing.B) {
	g := NewRNG(1)
	x := g.Randn(1, 256, 64)
	y := g.Randn(1, 256, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulTA(x, y)
	}
}

func BenchmarkElementwiseAdd(b *testing.B) {
	x, y := benchPair(1024, 64)
	b.SetBytes(int64(8 * x.Size() * 3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Add(x, y)
	}
}

func BenchmarkGatherRows(b *testing.B) {
	g := NewRNG(1)
	x := g.Randn(1, 1024, 64)
	idx := make([]int, 4096)
	for i := range idx {
		idx[i] = g.IntN(1024)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GatherRows(x, idx)
	}
}

func BenchmarkScatterAddRows(b *testing.B) {
	g := NewRNG(1)
	x := g.Randn(1, 4096, 64)
	idx := make([]int, 4096)
	for i := range idx {
		idx[i] = g.IntN(1024)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ScatterAddRows(x, idx, 1024)
	}
}

func BenchmarkSoftmaxRows(b *testing.B) {
	g := NewRNG(1)
	x := g.Randn(1, 1024, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SoftmaxRows(x)
	}
}

func BenchmarkConcatRows(b *testing.B) {
	g := NewRNG(1)
	parts := make([]*Tensor, 64)
	for i := range parts {
		parts[i] = g.Randn(1, 32, 18)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ConcatRows(parts...)
	}
}

// Pooled / Into-form counterparts of the allocating benchmarks above. These
// are the hot-path shapes the zero-alloc tentpole targets: same kernels, but
// the destination comes from the buffer pool once and is reused every
// iteration. ReportAllocs makes any regression visible in CI.

func BenchmarkMatMulInto128(b *testing.B) { benchMatMulInto(b, 128) }
func BenchmarkMatMulInto512(b *testing.B) { benchMatMulInto(b, 512) }

func benchMatMulInto(b *testing.B, n int) {
	g := NewRNG(1)
	x := g.Randn(1, n, n)
	y := g.Randn(1, n, n)
	dst := Get(n, n)
	defer Release(dst)
	b.SetBytes(int64(8 * n * n * 3))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInto(dst, x, y)
	}
}

func BenchmarkMatMulTransposedFormsInto(b *testing.B) {
	g := NewRNG(1)
	x := g.Randn(1, 256, 64)
	y := g.Randn(1, 256, 64)
	dst := Get(64, 64)
	defer Release(dst)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulTAInto(dst, x, y)
	}
}

func BenchmarkElementwiseAddInto(b *testing.B) {
	x, y := benchPair(1024, 64)
	dst := Get(1024, 64)
	defer Release(dst)
	b.SetBytes(int64(8 * x.Size() * 3))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AddInto(dst, x, y)
	}
}

func BenchmarkGatherRowsInto(b *testing.B) {
	g := NewRNG(1)
	x := g.Randn(1, 1024, 64)
	idx := make([]int, 4096)
	for i := range idx {
		idx[i] = g.IntN(1024)
	}
	dst := Get(4096, 64)
	defer Release(dst)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GatherRowsInto(dst, x, idx)
	}
}

func BenchmarkScatterAddRowsInto(b *testing.B) {
	g := NewRNG(1)
	x := g.Randn(1, 4096, 64)
	idx := make([]int, 4096)
	for i := range idx {
		idx[i] = g.IntN(1024)
	}
	dst := Get(1024, 64)
	defer Release(dst)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ScatterAddRowsInto(dst, x, idx)
	}
}

// BenchmarkGatherScaleScatterInto is the fused form of the two benchmarks
// above plus the per-arc scaling between them, at the same shapes.
func BenchmarkGatherScaleScatterInto(b *testing.B) {
	g := NewRNG(1)
	x := g.Randn(1, 1024, 64)
	w := g.Randn(1, 4096)
	src := make([]int, 4096)
	dst := make([]int, 4096)
	for i := range src {
		src[i], dst[i] = g.IntN(1024), g.IntN(1024)
	}
	arcs := newByDst(1024, src, dst)
	out := Get(1024, 64)
	defer Release(out)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GatherScaleScatterInto(out, x, w, src, dst, &arcs, Epilogue{})
	}
}

// BenchmarkPoolGetRelease measures the pool's per-buffer overhead: a Get/zero/
// Release cycle on a warm size class.
func BenchmarkPoolGetRelease(b *testing.B) {
	t := Get(1024, 64)
	Release(t)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t = Get(1024, 64)
		Release(t)
	}
}

// BenchmarkPoolGetReleaseParallel: Get/Release pairs from every P at once,
// one class per goroutine so the class locks do not collide; what is left
// shared is the pool's clock.
func BenchmarkPoolGetReleaseParallel(b *testing.B) {
	var next atomic.Int64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		n := 64 << (next.Add(1) % 8)
		for pb.Next() {
			Release(Get(n))
		}
	})
}

// Serving shapes and host ceilings. A compiled GCN/PyG replay at batch 32 of
// ENZYMES-sized graphs is, per layer, one [2048,64]·[64,64] product (the
// first layer's input is 18 wide) and one aggregation of 18 432 arcs into
// 2048 rows of width 64. Each benchmark reports its achieved rate beside two
// pure-Go ceilings measured the same way, so a kernel reads as a share of
// what this host reaches from Go: GFLOP/s against the register-blocked
// multiply-add loop, GB/s against a streaming copy. All run on one worker:
// the rates are per core.

const (
	serveRows  = 2048
	serveArcs  = 18432
	serveWidth = 64
)

// BenchmarkServeMatMul runs MatMulInto at the serving shapes. "relu" zeroes
// about half of a, as the ReLU before every hidden product does; its
// GFLOP/s counts the dense product's 2·M·K·N.
func BenchmarkServeMatMul(b *testing.B) {
	for _, c := range []struct {
		name string
		k    int
		relu bool
	}{{"2048x64x64", 64, false}, {"2048x64x64_relu", 64, true}, {"2048x18x64", 18, false}} {
		b.Run(c.name, func(b *testing.B) {
			g := NewRNG(1)
			x := g.Randn(1, serveRows, c.k)
			if c.relu {
				ReLUInto(x, x)
			}
			w := g.Randn(1, c.k, serveWidth)
			dst := New(serveRows, serveWidth)
			defer parallel.SetWorkers(parallel.SetWorkers(1))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatMulInto(dst, x, w)
			}
			flops := 2 * float64(serveRows*c.k*serveWidth) * float64(b.N)
			b.ReportMetric(flops/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}

// serveArcList draws the serving aggregation's arcs: each row receives nine
// on average, from sources anywhere in the batch.
func serveArcList() (s, d []int) {
	g := NewRNG(2)
	s, d = make([]int, serveArcs), make([]int, serveArcs)
	for k := range s {
		s[k], d[k] = g.IntN(serveRows), g.IntN(serveRows)
	}
	return s, d
}

// BenchmarkServeAggregate runs the destination-row aggregation at the
// serving shape: DGL's GSpMMSumInto and PyG's weighted GatherScaleScatterInto
// over the arcs' by-destination CSR. GB/s counts the gathered source rows
// and the written destination rows.
func BenchmarkServeAggregate(b *testing.B) {
	s, d := serveArcList()
	g := NewRNG(3)
	x := g.Randn(1, serveRows, serveWidth)
	w := g.Randn(1, serveArcs)
	arcs := newByDst(serveRows, s, d)
	dst := New(serveRows, serveWidth)
	for _, c := range []struct {
		name string
		run  func()
	}{
		{"gspmm_sum", func() { GSpMMSumInto(dst, x, arcs.rowptr, arcs.col) }},
		{"pyg_weighted", func() { GatherScaleScatterInto(dst, x, w, s, d, &arcs, Epilogue{}) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			defer parallel.SetWorkers(parallel.SetWorkers(1))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.run()
			}
			bytes := 8 * float64((serveArcs+serveRows)*serveWidth) * float64(b.N)
			b.ReportMetric(bytes/b.Elapsed().Seconds()/1e9, "GB/s")
		})
	}
}

// fmaSink keeps the ceiling loop's result live.
var fmaSink float64

// BenchmarkCeilingFMA is the compute ceiling of the product's strips over a
// 64-term panel that stays in L1, so every load hits: "go" is mmStrip8's
// loop, eight register accumulators each adding coef·panel per term; "avx2"
// is mmStrips16, sixteen columns in four YMM accumulators.
func BenchmarkCeilingFMA(b *testing.B) {
	defer parallel.SetWorkers(parallel.SetWorkers(1))
	for _, c := range []struct {
		name  string
		width int
		strip func(o, b []float64, off []int, coef []float64, fresh bool)
	}{{"go", stripWidth, mmStrip8}, {"avx2", vecStripWidth, mmStrips16}} {
		b.Run(c.name, func(b *testing.B) {
			if c.name == "avx2" && !haveAVX2 {
				b.Skip("the CPU has no AVX2")
			}
			g := NewRNG(4)
			panel, coef := g.Randn(1, 64, c.width).Data, g.Randn(1, 64).Data
			off := make([]int, 64)
			for q := range off {
				off[q] = q * c.width
			}
			o := make([]float64, c.width)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.strip(o, panel, off, coef, true)
			}
			fmaSink = o[0]
			b.ReportMetric(2*float64(len(panel))*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}

// BenchmarkCeilingCopy is the pure-Go bandwidth ceiling at the aggregation's
// footprint: copy a buffer the size of the gathered rows (9 MiB) and count
// the bytes read and written, as the aggregation's GB/s does.
func BenchmarkCeilingCopy(b *testing.B) {
	src := NewRNG(5).Randn(1, serveArcs, serveWidth).Data
	dst := make([]float64, len(src))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(dst, src)
	}
	b.ReportMetric(16*float64(len(src))*float64(b.N)/b.Elapsed().Seconds()/1e9, "GB/s")
}
