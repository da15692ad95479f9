package parallel

import (
	"sync"
	"sync/atomic"
	"testing"
)

func withWorkers(t *testing.T, n int) {
	t.Helper()
	prev := SetWorkers(n)
	t.Cleanup(func() { SetWorkers(prev) })
}

// call runs a closure as For's range function, for tests that check chunking
// rather than allocation.
func call(f func(lo, hi int), lo, hi int) { f(lo, hi) }

func TestForCoversRangeExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 4, 7} {
		withWorkers(t, workers)
		for _, n := range []int{0, 1, 2, 3, 5, 16, 17, 1000, 1001} {
			counts := make([]int32, n)
			For(n, 1, func(lo, hi int) {
				if lo < 0 || hi > n || lo > hi {
					t.Errorf("workers=%d n=%d: bad chunk [%d,%d)", workers, n, lo, hi)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&counts[i], 1)
				}
			}, call)
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, c)
				}
			}
		}
	}
}

func TestForSerialBelowGrain(t *testing.T) {
	withWorkers(t, 8)
	calls := 0
	For(100, 100, func(lo, hi int) {
		calls++
		if lo != 0 || hi != 100 {
			t.Fatalf("expected single chunk [0,100), got [%d,%d)", lo, hi)
		}
	}, call)
	if calls != 1 {
		t.Fatalf("n <= grain must run one inline chunk, got %d", calls)
	}
}

func TestForChunksRespectGrain(t *testing.T) {
	withWorkers(t, 8)
	var min atomic.Int64
	min.Store(1 << 62)
	For(100, 30, func(lo, hi int) {
		if w := int64(hi - lo); w < min.Load() {
			min.Store(w)
		}
	}, call)
	// 100 items at grain 30 allows at most 3 chunks (ceil semantics), so the
	// smallest chunk must hold at least 100/4 items even after balancing.
	if min.Load() < 25 {
		t.Fatalf("grain violated: smallest chunk %d", min.Load())
	}
}

func TestForPanicPropagates(t *testing.T) {
	withWorkers(t, 4)
	defer func() {
		if r := recover(); r != "boom-0" {
			t.Fatalf("expected lowest-chunk panic to win, got %v", r)
		}
	}()
	For(4, 1, func(lo, hi int) {
		if lo == 0 || lo == 2 {
			panic("boom-" + string(rune('0'+lo)))
		}
	}, call)
}

func TestForNestedDoesNotDeadlock(t *testing.T) {
	withWorkers(t, 4)
	var total atomic.Int64
	For(8, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			For(8, 1, func(l, h int) {
				total.Add(int64(h - l))
			}, call)
		}
	}, call)
	if total.Load() != 64 {
		t.Fatalf("nested For lost work: %d", total.Load())
	}
}

func TestSetWorkersFloorsAtOne(t *testing.T) {
	prev := SetWorkers(0)
	defer SetWorkers(prev)
	if Workers() != 1 {
		t.Fatalf("SetWorkers(0) must clamp to 1, got %d", Workers())
	}
}

func TestRowGrain(t *testing.T) {
	if g := RowGrain(MinWork * 2); g != 1 {
		t.Fatalf("expensive rows must give grain 1, got %d", g)
	}
	if g := RowGrain(1); g != MinWork {
		t.Fatalf("cheap rows must give grain MinWork, got %d", g)
	}
	if g := RowGrain(0); g != MinWork {
		t.Fatalf("degenerate cost must clamp, got %d", g)
	}
}

// span is the argument type of the record-reuse tests: chunk c of a For over
// [0, len(dst)) writes v+i into dst[i], and panics when c is in panics.
type span struct {
	dst    []int64
	v      int64
	panics map[int]bool
	nest   bool
}

func spanRange(s span, lo, hi int) {
	if s.panics[lo] {
		panic(lo)
	}
	for i := lo; i < hi; i++ {
		s.dst[i] = s.v + int64(i)
	}
	if s.nest {
		For(len(s.dst), 1, span{dst: make([]int64, len(s.dst)), v: s.v}, checkSpan)
	}
}

// checkSpan fills its own slice as spanRange does, then panics if any
// element of its chunk is wrong.
func checkSpan(s span, lo, hi int) {
	spanRange(s, lo, hi)
	for i := lo; i < hi; i++ {
		if s.dst[i] != s.v+int64(i) {
			panic("nested For wrote a wrong value")
		}
	}
}

func wantSpan(t *testing.T, dst []int64, v int64) {
	t.Helper()
	for i, got := range dst {
		if got != v+int64(i) {
			t.Fatalf("dst[%d] = %d, want %d", i, got, v+int64(i))
		}
	}
}

// TestForPanicRecordIsCleared: with chunks 1 and 2 panicking (each chunk is
// one index), chunk 1's panic is re-raised, and the record that held both
// panics, reused by the next For of the same argument type, raises nothing.
func TestForPanicRecordIsCleared(t *testing.T) {
	withWorkers(t, 4)
	func() {
		defer func() {
			if r := recover(); r != 1 {
				t.Fatalf("recovered %v, want chunk 1's panic", r)
			}
		}()
		For(4, 1, span{dst: make([]int64, 4), panics: map[int]bool{1: true, 2: true}}, spanRange)
		t.Fatal("For returned without re-raising its chunks' panic")
	}()
	dst := make([]int64, 4)
	For(4, 1, span{dst: dst, v: 10}, spanRange)
	wantSpan(t, dst, 10)
}

// TestForConcurrentCallers: eight goroutines fan out at once, each over its
// own data, so several records of one argument type are live together.
func TestForConcurrentCallers(t *testing.T) {
	withWorkers(t, 4)
	var wg sync.WaitGroup
	dsts := make([][]int64, 8)
	for g := range dsts {
		dsts[g] = make([]int64, 1000)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 50; r++ {
				For(1000, 7, span{dst: dsts[g], v: int64(g*100 + r)}, spanRange)
			}
		}(g)
	}
	wg.Wait()
	for g, dst := range dsts {
		wantSpan(t, dst, int64(g*100+49))
	}
}

// TestForNestedSameArgumentType: a chunk's own For of the same argument type
// takes a second record instead of the one its caller holds.
func TestForNestedSameArgumentType(t *testing.T) {
	withWorkers(t, 4)
	dst := make([]int64, 16)
	For(16, 1, span{dst: dst, v: 5, nest: true}, spanRange)
	wantSpan(t, dst, 5)
}

type fill struct {
	dst []float64
	v   float64
}

func fillRange(f fill, lo, hi int) {
	for i := lo; i < hi; i++ {
		f.dst[i] = f.v
	}
}

// TestForZeroAllocs: For allocates nothing on the inline path and, once its
// argument type has a record, nothing on the fan-out path either.
func TestForZeroAllocs(t *testing.T) {
	dst := make([]float64, 1<<12)
	for _, c := range []struct {
		name           string
		workers, grain int
		fanOut         bool
	}{
		{"inline at one worker", 1, 1, false},
		{"inline under one grain", 7, len(dst), false},
		{"fan-out at two workers", 2, 1, true},
		{"fan-out at seven workers", 7, 1, true},
	} {
		withWorkers(t, c.workers)
		before := ChunksDispatched() + ChunksInline()
		if a := testing.AllocsPerRun(50, func() { For(len(dst), c.grain, fill{dst, 2}, fillRange) }); a != 0 {
			t.Errorf("%s: %v allocs per For, want 0", c.name, a)
		}
		if moved := ChunksDispatched()+ChunksInline() != before; moved != c.fanOut {
			t.Errorf("%s: chunk counters moved = %v, want %v", c.name, moved, c.fanOut)
		}
		for i, v := range dst {
			if v != 2 {
				t.Fatalf("%s: dst[%d] = %v", c.name, i, v)
			}
		}
	}
}
