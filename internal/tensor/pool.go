package tensor

import (
	"math"
	"math/bits"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"weak"
)

// Buffer pool: a size-class keyed free list for tensor backing buffers.
//
// Every tensor op in the original engine allocated a fresh backing slice, so
// steady-state training and serving churned the heap exactly where the
// paper's kernel-launch overhead sat. The pool turns that churn into
// constant-space reuse: Get hands out a tensor whose buffer comes from the
// free list of the smallest power-of-two class that fits (or, when that
// list is empty, of the next class up), and Release returns a buffer to the
// list of its own class. A steady-state training or serving step whose
// Gets are balanced by Releases performs zero heap allocations.
//
// Rules:
//
//   - Get returns a zeroed tensor, exactly like New. Kernels may therefore
//     accumulate into it without clearing first.
//   - GetUninit returns a tensor whose contents are unspecified, for a
//     kernel that writes every element before it reads one: it skips the
//     clear, which on a recycled buffer is a pass over memory the kernel is
//     about to overwrite anyway. Under SetPoolPoison it fills the buffer
//     with the poison NaN instead, on a fresh buffer too, so a kernel that
//     reads before it writes turns its results NaN in the tests.
//   - Release must only be called by the owner of the tensor, after its last
//     read. Releasing twice panics; reading after Release is undefined (the
//     buffer may be handed to another Get). Tests enable poisoning
//     (SetPoolPoison) so a read after Release surfaces as a poison NaN
//     instead of silently reading recycled data.
//   - Views share storage (Row, Reshape, FromSlice): releasing a tensor
//     invalidates every view of it. The gnnvet use-after-release check
//     enforces the obvious cases statically.
//
// Retention: the pool keeps no more than the process recently used. Each
// class counts its outstanding buffers — handed out by Get and not yet
// released — and keeps parked + outstanding ≤ B, where B is the class's
// outstanding high-water mark over the current and the previous
// garbage-collection cycle. A cycle is named by the runtime's count of
// completed collections (/gc/cycles/total:gc-cycles; see gcClock for how a
// Get reads it), and each class stamps the cycle its mark covers. A Get in
// a later cycle, or a roll, moves
// the class into that cycle: the mark becomes the previous cycle's and
// restarts at what is outstanding. A miss can only create a buffer the mark
// already covers, so the rule binds when the marks roll: a finalizer
// sentinel re-armed every GC cycle rolls every class into the current cycle
// and evicts its longest-parked buffers above its new B. So a class parks
// what was in use at once within the last two cycles — the set a recurring
// step needs — and a class that stopped being used leaves within two
// cycles. Two cycles, not one, because a GC can land between steps, when
// nothing is outstanding. A roll runs when the finalizer goroutine gets to
// it, which under load can be after the next Gets; those Gets have already
// moved their class into the new cycle, so the roll leaves it there.
// Parked bytes are live heap and raise the collector's heap goal, so they
// are bounded by recent demand rather than by a count; the one-class borrow
// keeps batches of neighbouring sizes on one set of buffers instead of two.
//
// The pool is safe for concurrent use; each size class has its own lock.

const (
	// poolMinBits is the smallest pooled class: buffers under 8 floats are
	// not worth recycling.
	poolMinBits = 3
	// poolMaxBits caps pooled buffers at 2^26 floats (512 MiB); anything
	// larger is handed back to the garbage collector on Release.
	poolMaxBits = 26
)

// poolPoisonBits is the quiet-NaN bit pattern released buffers are filled
// with under SetPoolPoison: any computation that reads a released buffer
// turns NaN, which the bit-identity and property tests catch immediately.
const poolPoisonBits = 0x7ff8dead_dead_dead

type sizeClass struct {
	mu          sync.Mutex
	free        []*Tensor // a stack: free[0] has been parked longest
	outstanding int       // buffers handed out by Get and not yet released
	mark, prev  int       // outstanding high-water marks of cycle and the one before
	cycle       uint64    // the GC cycle mark covers
}

// take pops the class's most recently parked buffer and counts it
// outstanding in GC cycle now, or returns nil when none is parked.
func (sc *sizeClass) take(now uint64) *Tensor {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.advance(now)
	l := len(sc.free)
	if l == 0 {
		return nil
	}
	t := sc.free[l-1]
	sc.free[l-1] = nil
	sc.free = sc.free[:l-1]
	sc.outstanding++
	sc.mark = max(sc.mark, sc.outstanding)
	return t
}

// advance moves the class into GC cycle c, if c is later than its own: the
// mark becomes the previous cycle's, or, when a whole cycle passed with no
// Get, what is outstanding, and restarts at what is outstanding. Callers
// hold sc.mu.
func (sc *sizeClass) advance(c uint64) {
	if c <= sc.cycle {
		return
	}
	if c == sc.cycle+1 {
		sc.prev = sc.mark
	} else {
		sc.prev = sc.outstanding
	}
	sc.mark = sc.outstanding
	sc.cycle = c
}

// rollMarks moves every class into GC cycle c and evicts its buffers above
// the marks.
func rollMarks(classes []sizeClass, c uint64) {
	for i := range classes {
		sc := &classes[i]
		sc.mu.Lock()
		sc.advance(c)
		sc.trim()
		sc.mu.Unlock()
	}
}

// gcClock is the pool's copy of the runtime's count of completed GC cycles.
// metrics.Read takes the runtime's global metrics semaphore and heap lock,
// which every Get on every goroutine would then queue on, so a Get reads
// the copy and refreshes it only once a collection has finished since the
// last refresh. The sign is the guard: a weak pointer to an object nothing
// else references, which reads nil from the end of the first collection
// that finds the object unreachable. A refresh arms a fresh guard and then
// reads the count, so a collection that ends after the read always clears
// the guard; arming it is the only allocation a Get makes, once per cycle.
// A guard allocated while a collection is marking survives that
// collection; the sentinel's roll, which refreshes the copy too, bounds how
// long the copy then lags.
type gcClock struct {
	now   atomic.Uint64
	guard atomic.Pointer[weak.Pointer[gcSentinel]]

	mu     sync.Mutex
	sample [1]metrics.Sample // read under mu, so a refresh allocates no sample
}

var clock gcClock

// cycle returns the GC cycle a Get happens in.
func (k *gcClock) cycle() uint64 {
	if g := k.guard.Load(); g != nil && g.Value() != nil {
		return k.now.Load()
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	if g := k.guard.Load(); g == nil || g.Value() == nil {
		g := weak.Make(new(gcSentinel))
		k.guard.Store(&g)
		k.refreshLocked()
	}
	return k.now.Load()
}

// refresh reads the runtime's count into the copy and returns it.
func (k *gcClock) refresh() uint64 {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.refreshLocked()
}

func (k *gcClock) refreshLocked() uint64 {
	k.sample[0].Name = "/gc/cycles/total:gc-cycles"
	metrics.Read(k.sample[:])
	n := max(k.sample[0].Value.Uint64(), k.now.Load())
	k.now.Store(n)
	return n
}

// trim evicts the class's longest-parked buffers until parked + outstanding
// is within the recent high-water mark. Callers hold sc.mu.
func (sc *sizeClass) trim() {
	for len(sc.free)+sc.outstanding > max(sc.mark, sc.prev) {
		poolFloats.Add(-int64(cap(sc.free[0].Data)))
		sc.free[0] = nil
		sc.free = sc.free[1:]
		poolEvictions.Add(1)
	}
}

var (
	poolClasses [poolMaxBits + 1]sizeClass

	poolHits      atomic.Int64
	poolMisses    atomic.Int64
	poolReleases  atomic.Int64
	poolDiscards  atomic.Int64
	poolEvictions atomic.Int64
	poolZeroed    atomic.Int64 // floats Get cleared in recycled buffers
	poolFloats    atomic.Int64 // floats currently parked on free lists
	poolCycles    atomic.Int64 // GC cycles the marks have rolled at

	poolPoison atomic.Bool
)

// classFor returns the smallest power-of-two class holding n floats.
func classFor(n int) int {
	if n <= 1<<poolMinBits {
		return poolMinBits
	}
	return bits.Len(uint(n - 1))
}

// Get returns a zeroed tensor of the given shape whose backing buffer is
// recycled from the pool when one of its class, or failing that of the next
// class up, is free, and freshly allocated otherwise. The caller owns the
// tensor and should Release it after its last read to keep the steady state
// allocation-free.
//
//gnnvet:allow unreachable -- TestPoolGetReleaseReuse
func Get(shape ...int) *Tensor { return get(shape, true) }

// GetUninit is Get for a caller that writes every element before it reads
// one: the contents are unspecified (the poison NaN under SetPoolPoison).
func GetUninit(shape ...int) *Tensor { return get(shape, false) }

// GetLike returns a pooled zero tensor with t's shape.
func GetLike(t *Tensor) *Tensor { return get(t.shape, true) }

// GetUninitLike returns a pooled tensor with t's shape and unspecified
// contents (see GetUninit).
func GetUninitLike(t *Tensor) *Tensor { return get(t.shape, false) }

// get draws a tensor of shape from the pool, cleared when zeroed is set.
func get(shape []int, zeroed bool) *Tensor {
	n := checkShape(shape)
	c := classFor(n)
	if c > poolMaxBits {
		poolMisses.Add(1)
		t := &Tensor{Data: make([]float64, n)}
		if !zeroed && poolPoison.Load() {
			poison(t.Data)
		}
		t.setShape(shape)
		return t
	}
	now := clock.cycle()
	t := poolClasses[c].take(now)
	if t == nil && c < poolMaxBits {
		// Batches whose sizes straddle a class boundary share one set of
		// buffers: the smaller batch borrows the larger one's.
		t = poolClasses[c+1].take(now)
	}
	if t != nil {
		poolFloats.Add(-int64(cap(t.Data)))
		poolHits.Add(1)
		t.Data = t.Data[:n]
		if zeroed {
			zero(t.Data)
			poolZeroed.Add(int64(n))
		}
		t.released = false
	} else {
		sc := &poolClasses[c]
		sc.mu.Lock()
		sc.advance(now)
		sc.outstanding++
		sc.mark = max(sc.mark, sc.outstanding)
		sc.mu.Unlock()
		poolMisses.Add(1)
		// Round the fresh buffer up to its class size so it is maximally
		// reusable once released.
		t = &Tensor{Data: make([]float64, n, 1<<c)}
	}
	if !zeroed && poolPoison.Load() {
		poison(t.Data)
	}
	t.setShape(shape)
	return t
}

// Release returns tensors from Get to the pool for reuse. nil entries are
// skipped. The tensors (and any views sharing their storage) must not be
// touched afterwards; releasing the same tensor twice panics.
func Release(ts ...*Tensor) {
	for _, t := range ts {
		if t == nil {
			continue
		}
		if t.released {
			panic("tensor: double Release")
		}
		t.released = true
		poolReleases.Add(1)
		buf := t.Data[:cap(t.Data)]
		if poolPoison.Load() {
			poison(buf)
		}
		c := bits.Len(uint(cap(t.Data))) - 1 // floor class: every buffer in free[c] has cap >= 2^c
		if c < poolMinBits || c > poolMaxBits {
			poolDiscards.Add(1)
			continue
		}
		t.Data = buf
		sc := &poolClasses[c]
		sc.mu.Lock()
		sc.outstanding = max(sc.outstanding-1, 0) // a tensor from New was never counted
		sc.free = append(sc.free, t)
		poolFloats.Add(int64(cap(buf)))
		sc.trim() // binds only for a buffer Get never handed out
		sc.mu.Unlock()
	}
}

// gcSentinel's finalizer rolls every class's marks once per GC cycle: each
// run arms a fresh sentinel, which the next cycle finds unreachable. Sixteen
// bytes keeps it out of the tiny allocator, whose finalizers may never run.
type gcSentinel struct{ _ [16]byte }

func armGCSentinel() {
	runtime.SetFinalizer(new(gcSentinel), func(*gcSentinel) {
		armGCSentinel() // before rolling, so a cycle starting during this roll still finds one
		rollMarks(poolClasses[:], clock.refresh())
		poolCycles.Add(1)
	})
}

func init() { armGCSentinel() }

// zero clears a slice (compiled to memclr).
func zero(d []float64) {
	for i := range d {
		d[i] = 0
	}
}

// poison fills a slice with the poison NaN.
func poison(d []float64) {
	p := math.Float64frombits(poolPoisonBits)
	for i := range d {
		d[i] = p
	}
}

// PoolStats is a snapshot of the buffer pool counters.
type PoolStats struct {
	Hits      int64 // Gets served from a free list
	Misses    int64 // Gets that had to allocate
	Releases  int64 // tensors handed back
	Discards  int64 // releases outside the pooled class range, left to the collector
	Evictions int64 // parked buffers dropped above their class's recent high-water mark
	Bytes     int64 // bytes currently parked on free lists
	// ZeroedBytes counts the bytes Get cleared in recycled buffers; a fresh
	// buffer comes cleared from the runtime and GetUninit clears nothing.
	ZeroedBytes int64
}

// Pool returns a snapshot of the pool counters (exported to the obs layer as
// tensor_pool_* metrics).
func Pool() PoolStats {
	return PoolStats{
		Hits:        poolHits.Load(),
		Misses:      poolMisses.Load(),
		Releases:    poolReleases.Load(),
		Discards:    poolDiscards.Load(),
		Evictions:   poolEvictions.Load(),
		Bytes:       poolFloats.Load() * 8,
		ZeroedBytes: poolZeroed.Load() * 8,
	}
}

// SetPoolPoison toggles poisoning of released buffers and reports the
// previous setting. Tests enable it to prove no kernel reads a tensor after
// Release: every float of a released buffer is set to a tagged quiet NaN, so
// any read poisons downstream results.
//
//gnnvet:allow unreachable -- TestTrainingStepZeroAllocs
func SetPoolPoison(on bool) bool { return poolPoison.Swap(on) }

// DrainPool empties every free list (the buffers fall to the garbage
// collector) and returns how many tensors were dropped. Tests use it to
// isolate pool state; production code never needs it.
//
//gnnvet:allow unreachable -- TestInferPooledBitIdentical
func DrainPool() int {
	n := 0
	for c := range poolClasses {
		sc := &poolClasses[c]
		sc.mu.Lock()
		for _, t := range sc.free {
			poolFloats.Add(-int64(cap(t.Data)))
			n++
		}
		sc.free = nil
		sc.mu.Unlock()
	}
	return n
}
