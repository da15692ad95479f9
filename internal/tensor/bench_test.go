package tensor

import (
	"sync/atomic"
	"testing"
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
	out := Get(1024, 64)
	defer Release(out)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GatherScaleScatterInto(out, x, w, src, dst)
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
