package tensor

import (
	"math"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sync"
	"testing"
	"time"
)

// poolReset drains the free lists so each test observes its own hits/misses
// deltas without interference from other tests' pooled buffers.
func poolReset() { DrainPool() }

func TestPoolGetReleaseReuse(t *testing.T) {
	poolReset()
	before := Pool()
	a := Get(16, 8)
	if a.Rank() != 2 || a.Dim(0) != 16 || a.Dim(1) != 8 {
		t.Fatalf("Get shape = %v", a.Shape())
	}
	for _, v := range a.Data {
		if v != 0 {
			t.Fatal("Get must return a zeroed tensor")
		}
	}
	a.Data[0] = 42
	buf := &a.Data[0]
	Release(a)
	b := Get(100) // 100 <= 128 = cap class of 16*8 rounded up
	if &b.Data[0] != buf {
		t.Error("Get after Release did not recycle the buffer")
	}
	if b.Data[0] != 0 {
		t.Error("recycled buffer was not re-zeroed")
	}
	after := Pool()
	if hits := after.Hits - before.Hits; hits != 1 {
		t.Errorf("pool hits = %d, want 1", hits)
	}
	if misses := after.Misses - before.Misses; misses != 1 {
		t.Errorf("pool misses = %d, want 1", misses)
	}
	Release(b)
}

func TestPoolDoubleReleasePanics(t *testing.T) {
	poolReset()
	a := Get(8)
	Release(a)
	defer func() {
		if recover() == nil {
			t.Fatal("second Release of the same tensor must panic")
		}
	}()
	Release(a)
}

func TestPoolReleaseNilSkipped(t *testing.T) {
	Release(nil, nil) // must not panic
}

func TestPoolPoisonMarksReleasedBuffers(t *testing.T) {
	poolReset()
	prev := SetPoolPoison(true)
	defer SetPoolPoison(prev)
	a := Get(32)
	data := a.Data
	Release(a)
	for i, v := range data {
		if !IsPoolPoison(v) {
			t.Fatalf("released buffer element %d = %v, want poison NaN", i, v)
		}
		if !math.IsNaN(v) {
			t.Fatalf("poison pattern at %d is not NaN", i)
		}
	}
	// A fresh Get of the same class must hand the buffer back zeroed, so the
	// poison never leaks into live computation.
	b := Get(32)
	for i, v := range b.Data {
		if v != 0 {
			t.Fatalf("recycled element %d = %v, want 0", i, v)
		}
	}
	Release(b)
}

func TestPoolStatsAndDrain(t *testing.T) {
	poolReset()
	before := Pool()
	ts := make([]*Tensor, 4)
	for i := range ts {
		ts[i] = Get(1024)
	}
	Release(ts...)
	after := Pool()
	if d := after.Releases - before.Releases; d != 4 {
		t.Errorf("releases delta = %d, want 4", d)
	}
	if after.Bytes-before.Bytes != 4*1024*8 {
		t.Errorf("parked bytes delta = %d, want %d", after.Bytes-before.Bytes, 4*1024*8)
	}
	if n := DrainPool(); n != 4 {
		t.Errorf("DrainPool dropped %d tensors, want 4", n)
	}
	if got := Pool().Bytes; got != before.Bytes {
		t.Errorf("parked bytes after drain = %d, want %d", got, before.Bytes)
	}
}

func TestPoolTinyBuffersAreDiscarded(t *testing.T) {
	poolReset()
	before := Pool()
	// New does not round capacity up, so a 4-float buffer sits below the
	// smallest pooled class and Release must hand it to the GC.
	tiny := New(4)
	Release(tiny)
	after := Pool()
	if d := after.Discards - before.Discards; d != 1 {
		t.Errorf("discards delta = %d, want 1 (sub-class buffer)", d)
	}
	if after.Bytes != before.Bytes {
		t.Error("sub-class buffer was parked on a free list")
	}
}

// TestPoolZeroAllocSteadyState is the tentpole property at the tensor layer:
// once warm, a Get/use/Release cycle does not touch the heap.
func TestPoolZeroAllocSteadyState(t *testing.T) {
	if RaceEnabled {
		t.Skip("race instrumentation allocates; AllocsPerRun is meaningless under -race")
	}
	poolReset()
	shape := []int{64, 32}
	warm := Get(shape...)
	Release(warm)
	allocs := testing.AllocsPerRun(100, func() {
		x := Get(shape...)
		x.Data[0] = 1
		Release(x)
	})
	if allocs != 0 {
		t.Errorf("steady-state Get/Release = %v allocs/op, want 0", allocs)
	}
}

// manualGC turns automatic collections off for the rest of the test, so the
// only GC cycles are gcRoll's: two cycles back to back with no pool traffic
// between them are an idle window, and the pool rightly evicts after one.
func manualGC(t *testing.T) {
	prev := debug.SetGCPercent(-1)
	t.Cleanup(func() { debug.SetGCPercent(prev) })
}

// TestPoolBorrowsOneClassUp: a Get whose class is empty takes a parked
// buffer of the next class up — batches straddling a class boundary share
// one set — and never one two classes up.
func TestPoolBorrowsOneClassUp(t *testing.T) {
	poolReset()
	big := Get(1000) // class 10
	buf := &big.Data[:cap(big.Data)][0]
	Release(big)
	before := Pool()
	small := Get(500) // class 9: empty, so class 10 lends its buffer
	if &small.Data[:cap(small.Data)][0] != buf || len(small.Data) != 500 {
		t.Fatal("a Get with an empty class did not borrow the parked buffer one class up")
	}
	Release(small)
	tiny := Get(200) // class 8: two classes below the parked buffer
	if &tiny.Data[:cap(tiny.Data)][0] == buf {
		t.Fatal("a Get borrowed a buffer two classes up")
	}
	Release(tiny)
	after := Pool()
	if hits, misses := after.Hits-before.Hits, after.Misses-before.Misses; hits != 1 || misses != 1 {
		t.Errorf("%d hits and %d misses, want 1 and 1", hits, misses)
	}
	if got := len(poolClasses[10].free); got != 1 {
		t.Errorf("class 10 parks %d buffers after its borrowed one came back, want 1", got)
	}
}

// gcRoll forces a garbage collection and waits until the pool's sentinel
// has rolled the marks at least once since the call.
func gcRoll(t *testing.T) {
	t.Helper()
	before := poolCycles.Load()
	runtime.GC()
	deadline := time.Now().Add(10 * time.Second)
	for poolCycles.Load() == before {
		if time.Now().After(deadline) {
			t.Fatal("the pool's marks did not roll within 10s of runtime.GC")
		}
		time.Sleep(time.Millisecond)
	}
}

// withinMarks reports every pooled class whose parked + outstanding buffers
// exceed its recent high-water mark.
func withinMarks(t *testing.T) {
	t.Helper()
	for c := range poolClasses {
		sc := &poolClasses[c]
		sc.mu.Lock()
		n, b := len(sc.free)+sc.outstanding, max(sc.mark, sc.prev)
		sc.mu.Unlock()
		if n > b {
			t.Errorf("class %d holds %d buffers, above its recent high-water mark %d", c, n, b)
		}
	}
}

// getN draws n tensors of size floats at once.
func getN(n, size int) []*Tensor {
	ts := make([]*Tensor, n)
	for i := range ts {
		ts[i] = Get(size)
	}
	return ts
}

// TestPoolPhaseChange: a phase parks a large class, then a small working set
// takes over. The small set misses once and is served from the free lists
// after that, across GC cycles; the large class, unused for two cycles,
// leaves; no class ever holds more than its recent high-water mark.
func TestPoolPhaseChange(t *testing.T) {
	poolReset()
	manualGC(t)
	const large, small = 1 << 16, 1 << 8
	Release(getN(4, large)...)
	if got := len(poolClasses[classFor(large)].free); got != 4 {
		t.Fatalf("large phase parked %d buffers, want 4", got)
	}
	withinMarks(t)

	before := Pool()
	for pass := 0; pass < 30; pass++ {
		if pass == 10 || pass == 20 {
			gcRoll(t)
		}
		Release(getN(3, small)...)
		withinMarks(t)
	}
	after := Pool()
	if misses := after.Misses - before.Misses; misses != 3 {
		t.Errorf("small phase missed %d times, want 3 (its first pass only)", misses)
	}
	if got := len(poolClasses[classFor(large)].free); got != 0 {
		t.Errorf("large class still parks %d buffers two GC cycles after its last use", got)
	}
	if ev := after.Evictions - before.Evictions; ev < 4 {
		t.Errorf("evictions advanced by %d, want at least the 4 large buffers", ev)
	}
	if got := len(poolClasses[classFor(small)].free); got != 3 {
		t.Errorf("small class parks %d buffers, want its working set of 3", got)
	}
}

// TestPoolShrinkingDemand: a class parks what it had in use at once within
// the last two cycles, not what it once had.
func TestPoolShrinkingDemand(t *testing.T) {
	poolReset()
	manualGC(t)
	const size = 1 << 10
	Release(getN(8, size)...)
	for i := 0; i < 2; i++ {
		gcRoll(t)
		Release(getN(2, size)...)
	}
	if got := len(poolClasses[classFor(size)].free); got != 2 {
		t.Errorf("class parks %d buffers after two cycles of using 2 at once, want 2", got)
	}
	withinMarks(t)
}

// TestPoolIdle: with no pool traffic, two GC cycles empty the free lists.
func TestPoolIdle(t *testing.T) {
	poolReset()
	manualGC(t)
	Release(getN(5, 1<<12)...)
	before := Pool()
	if before.Bytes == 0 {
		t.Fatal("nothing parked")
	}
	gcRoll(t)
	gcRoll(t)
	after := Pool()
	if after.Bytes != 0 {
		t.Errorf("%d bytes still parked after two idle GC cycles", after.Bytes)
	}
	if ev := after.Evictions - before.Evictions; ev < 5 {
		t.Errorf("evictions advanced by %d over two idle cycles, want at least 5", ev)
	}
}

// TestPoolLateRollIsNotAnIdleCycle: a roll that runs after Gets which
// followed its collection — a sentinel finalized late, because sweeping is
// lazy — leaves those Gets in the new cycle, so it and the next roll age the
// marks once: the working set those Gets used stays parked. Two collections
// with no Get between them, or a roll that came before the Gets, age the
// marks twice as before.
func TestPoolLateRollIsNotAnIdleCycle(t *testing.T) {
	// working is a class that had three buffers in use at once, its Gets
	// after collection 11, beside an idle one. Only the first case parks
	// them: an eviction from these classes would move the pool-wide gauges.
	working := func(parked bool) []sizeClass {
		classes := make([]sizeClass, 2)
		if parked {
			classes[0].free = []*Tensor{New(8), New(8), New(8)}
		}
		classes[0].mark = 3
		classes[0].cycle = 11
		return classes
	}
	classes := working(true)
	rollMarks(classes, 11) // collection 11's roll, after the Gets
	if classes[0].prev != 0 || classes[0].mark != 3 {
		t.Fatalf("a late roll aged the Gets it came after (prev mark %d, mark %d; want 0 and 3)", classes[0].prev, classes[0].mark)
	}
	rollMarks(classes, 12) // the next collection, no Get between the rolls
	if n := len(classes[0].free); n != 3 || classes[0].prev != 3 {
		t.Fatalf("a late roll and the next one left %d of the 3 parked buffers (prev mark %d, want 3)", n, classes[0].prev)
	}

	classes = working(false)
	rollMarks(classes, 12)
	rollMarks(classes, 13) // two collections with no Get between them
	if classes[0].prev != 0 {
		t.Errorf("after two rolls with no Get, prev mark is %d, want 0", classes[0].prev)
	}

	classes = working(false)
	classes[0].cycle = 10 // the Gets came before collection 11
	rollMarks(classes, 11)
	rollMarks(classes, 12)
	if classes[0].prev != 0 {
		t.Errorf("a prompt roll held the marks (prev mark %d, want 0)", classes[0].prev)
	}
}

// TestPoolConcurrentUnderGC: Gets and Releases from several goroutines,
// racing the sentinel's rolls on the finalizer goroutine, leave every class
// within its marks and the parked-bytes gauge equal to what the free lists
// hold.
func TestPoolConcurrentUnderGC(t *testing.T) {
	poolReset()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				Release(getN(1+i%3, 64<<(i%4))...)
			}
		}()
	}
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	wg.Wait()
	withinMarks(t)
	var parked int64
	for c := range poolClasses {
		sc := &poolClasses[c]
		sc.mu.Lock()
		for _, b := range sc.free {
			parked += int64(cap(b.Data)) * 8
		}
		sc.mu.Unlock()
	}
	if got := Pool().Bytes; got != parked {
		t.Errorf("parked-bytes gauge reads %d, the free lists hold %d", got, parked)
	}
}

// TestPoolClockFollowsGC: the cycle a Get stamps is the runtime's count of
// completed collections, right after each forced collection, and it is the
// guard, not only the sentinel's roll, that tells Get the count moved: each
// collection clears the guard, and the next Get arms a fresh one.
func TestPoolClockFollowsGC(t *testing.T) {
	manualGC(t)
	sample := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	clock.cycle()
	for i := 0; i < 5; i++ {
		guard := clock.guard.Load()
		runtime.GC()
		if guard.Value() != nil {
			t.Fatalf("collection %d left the clock's guard reachable", i)
		}
		got := clock.cycle()
		if fresh := clock.guard.Load(); fresh == guard || fresh.Value() == nil {
			t.Fatalf("the first Get after collection %d armed no fresh guard", i)
		}
		metrics.Read(sample)
		if want := sample[0].Value.Uint64(); got != want {
			t.Fatalf("after collection %d the pool's clock reads %d, the runtime %d", i, got, want)
		}
	}
}

// TestGetUninitPoisons: under SetPoolPoison, GetUninit hands out the poison
// NaN in every element, whether it allocates the buffer or recycles one
// released while poisoning was off, so a kernel that reads a buffer before
// writing it turns NaN in the tests. It clears nothing: ZeroedBytes moves
// only for Get's recycled buffers.
func TestGetUninitPoisons(t *testing.T) {
	poolReset()
	prev := SetPoolPoison(true)
	defer SetPoolPoison(prev)
	checkPoisoned := func(what string, x *Tensor) {
		t.Helper()
		for i, v := range x.Data {
			if !IsPoolPoison(v) {
				t.Fatalf("%s: element %d = %v, want the poison NaN", what, i, v)
			}
		}
	}
	before := Pool()
	a := GetUninit(12, 10) // a miss: a fresh buffer
	if p := Pool(); p.Misses-before.Misses != 1 {
		t.Fatalf("first GetUninit: %d misses, want 1", p.Misses-before.Misses)
	}
	checkPoisoned("fresh buffer", a)
	for i := range a.Data {
		a.Data[i] = 1
	}
	SetPoolPoison(false)
	Release(a) // parks the ones unpoisoned
	SetPoolPoison(true)
	b := GetUninitLike(New(120))
	if p := Pool(); p.Hits-before.Hits != 1 {
		t.Fatalf("second GetUninit: %d hits, want 1", p.Hits-before.Hits)
	}
	checkPoisoned("recycled buffer", b)
	if p := Pool(); p.ZeroedBytes != before.ZeroedBytes {
		t.Errorf("GetUninit cleared %d bytes, want 0", p.ZeroedBytes-before.ZeroedBytes)
	}
	Release(b)
	c := Get(120) // a hit: cleared, poisoning or not
	for i, v := range c.Data {
		if v != 0 {
			t.Fatalf("Get after GetUninit: element %d = %v, want 0", i, v)
		}
	}
	if z := Pool().ZeroedBytes - before.ZeroedBytes; z != 120*8 {
		t.Errorf("Get of a recycled 120-float buffer counted %d bytes zeroed, want %d", z, 120*8)
	}
	Release(c)
}

// TestPoolUninitZeroAllocSteadyState is TestPoolZeroAllocSteadyState for
// GetUninit and GetUninitLike.
func TestPoolUninitZeroAllocSteadyState(t *testing.T) {
	if RaceEnabled {
		t.Skip("race instrumentation allocates; AllocsPerRun is meaningless under -race")
	}
	poolReset()
	shape := []int{64, 32}
	like := New(shape...)
	Release(GetUninit(shape...))
	allocs := testing.AllocsPerRun(100, func() {
		x := GetUninit(shape...)
		x.Data[0] = 1
		y := GetUninitLike(like)
		y.Data[0] = 1
		Release(x, y)
	})
	if allocs != 0 {
		t.Errorf("steady-state GetUninit/Release = %v allocs/op, want 0", allocs)
	}
}
