// Package parallel provides the shared deterministic worker pool that every
// hot compute kernel in this repository runs on. The paper's central finding
// is that framework-level kernel efficiency decides GNN training time; on the
// reproduction host the analogous lever is using every core the runtime
// grants us, without giving up the bit-for-bit reproducibility the
// experiments depend on.
//
// Design:
//
//   - A persistent pool of goroutines, sized to GOMAXPROCS at first use, sits
//     behind an unbuffered dispatch channel. Kernels never spawn goroutines
//     themselves; they partition work with For.
//
//   - For(n, grain, args, fn) splits the index range [0, n) into at most
//     Workers() contiguous chunks and runs fn(args, lo, hi) on each. Chunk
//     boundaries depend only on (n, grain, worker count) — never on
//     scheduling — and every kernel written on top assigns each output
//     element to exactly one chunk, so results are bit-identical to the
//     serial path for any worker count.
//
//   - Small inputs (n <= grain) and single-worker configurations run
//     fn(args, 0, n) inline on the caller: no goroutines, no synchronization.
//
//   - Neither path allocates: the operands travel as one value, the range
//     function is a plain function, and the fan-out path reuses a job record
//     per argument type, so kernels need no serial twin to stay
//     allocation-free.
//
//   - Dispatch is non-blocking: if every pool worker is busy (including the
//     nested case where a kernel running on the pool reaches another For),
//     the chunk executes inline on the submitting goroutine. The pool can
//     therefore never deadlock, and nested parallelism degrades gracefully
//     to serial execution instead of oversubscribing.
//
// The worker count defaults to GOMAXPROCS(0), can be pinned with the
// GNNLAB_WORKERS environment variable before first use, and can be changed at
// runtime with SetWorkers (tests use this to compare chunkings).
package parallel

import (
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
)

// MinWork is the default number of scalar operations below which a kernel
// should not bother fanning out: dispatching a chunk costs on the order of a
// microsecond, which only pays for itself above roughly this much float work.
const MinWork = 1 << 14

var (
	configured atomic.Int64 // worker count used to partition For calls

	mu      sync.Mutex // guards spawned
	spawned int        // pool goroutines started so far
	work    chan task  // unbuffered dispatch channel

	// Occupancy telemetry, read by obs.RegisterPoolMetrics. Only the
	// parallel (multi-chunk) path accounts here; the serial fast path stays
	// untouched so tiny kernels pay nothing for the bookkeeping.
	busy             atomic.Int64 // chunks executing right now
	chunksDispatched atomic.Int64 // chunks handed to pool goroutines
	chunksInline     atomic.Int64 // chunks run on the submitting goroutine
)

func init() {
	n := runtime.GOMAXPROCS(0)
	if s := os.Getenv("GNNLAB_WORKERS"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			n = v
		}
	}
	work = make(chan task)
	configured.Store(int64(n))
}

// Workers returns the worker count For partitions against.
func Workers() int { return int(configured.Load()) }

// Busy returns the number of For chunks executing at this instant — the
// pool-occupancy gauge of the telemetry layer.
func Busy() int64 { return busy.Load() }

// ChunksDispatched returns the cumulative number of chunks handed to pool
// goroutines.
func ChunksDispatched() int64 { return chunksDispatched.Load() }

// ChunksInline returns the cumulative number of chunks executed inline on
// the submitting goroutine (the caller's own chunk, plus saturation and
// nested-parallelism fallbacks).
func ChunksInline() int64 { return chunksInline.Load() }

// SetWorkers overrides the worker count (minimum 1) and returns the previous
// value. Raising it grows the persistent pool; lowering it only narrows
// partitioning — pool goroutines are never torn down. Kernels partition
// deterministically for any fixed value, so tests flip this to check that
// every chunking produces bit-identical results.
func SetWorkers(n int) int {
	if n < 1 {
		n = 1
	}
	prev := int(configured.Swap(int64(n)))
	ensure(n)
	return prev
}

// ensure grows the pool to at least n goroutines.
func ensure(n int) {
	mu.Lock()
	for spawned < n {
		go func() {
			for t := range work {
				t.j.run(t.c, t.lo, t.hi)
			}
		}()
		spawned++
	}
	mu.Unlock()
}

// For runs fn(args, lo, hi) over [0, n) split into contiguous chunks. grain
// is the minimum chunk size (and the serial threshold: n <= grain runs
// inline). fn must treat [lo, hi) as exclusively owned — the kernels built on
// For write each output element from exactly one chunk, which is what makes
// the parallel path race-free without atomics and bit-identical to serial
// execution.
//
// For allocates nothing on either path. args travels by value and fn is a
// package-level function or method expression, so nothing on the caller's
// stack escapes; the serial path calls fn(args, 0, n) directly, and the
// fan-out path copies args into a recycled job record (see job).
//
// Panics inside fn propagate to the caller; when several chunks panic, the
// lowest-indexed chunk's panic wins, matching what a serial left-to-right
// execution would have raised first.
func For[A any](n, grain int, args A, fn func(a A, lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	w := Workers()
	chunks := min((n+grain-1)/grain, w)
	if chunks <= 1 {
		fn(args, 0, n)
		return
	}
	ensure(w)

	j := acquire[A]()
	j.fn, j.args = fn, args
	if cap(j.panics) < chunks {
		j.panics = make([]any, chunks)
	}
	j.panics = j.panics[:chunks]
	j.wg.Add(chunks)
	base, rem := n/chunks, n%chunks
	lo := 0
	var lo0, hi0 int
	for c := 0; c < chunks; c++ {
		hi := lo + base
		if c < rem {
			hi++
		}
		if c == 0 {
			lo0, hi0 = lo, hi // chunk 0 runs on the caller below
		} else {
			select {
			case work <- task{j, c, lo, hi}:
				chunksDispatched.Add(1)
			default:
				// Pool saturated (or nested For): execute inline.
				chunksInline.Add(1)
				j.run(c, lo, hi)
			}
		}
		lo = hi
	}
	chunksInline.Add(1)
	j.run(0, lo0, hi0)
	j.wg.Wait()
	var p any
	for _, r := range j.panics {
		if r != nil {
			p = r
			break
		}
	}
	j.release()
	if p != nil {
		panic(p)
	}
}

// A job is one fanned-out For call: its range function, its arguments, the
// chunks still running and what each chunk panicked with. Pool workers
// receive a task naming the job and the chunk, never a closure, so a For call
// allocates nothing once its argument type has a record to reuse. Records are
// kept per argument type for the life of the process; a released one holds
// no argument, so it keeps nothing else alive.
type job[A any] struct {
	fn     func(A, int, int)
	args   A
	wg     sync.WaitGroup
	panics []any // one slot per chunk
	next   *job[A]
	free   *jobs[A]
}

// jobs is the free list of one argument type's records.
type jobs[A any] struct {
	mu   sync.Mutex
	head *job[A]
}

// stores maps a typed nil *job[A] (an interface value, so its dynamic type
// tells the argument types apart) to that type's *jobs[A].
var stores sync.Map

func acquire[A any]() *job[A] {
	key := any((*job[A])(nil))
	s, ok := stores.Load(key)
	if !ok {
		s, _ = stores.LoadOrStore(key, new(jobs[A]))
	}
	free := s.(*jobs[A])
	free.mu.Lock()
	j := free.head
	if j != nil {
		free.head = j.next
	}
	free.mu.Unlock()
	if j == nil {
		j = &job[A]{free: free}
	}
	return j
}

// release clears j and returns it to its free list.
func (j *job[A]) release() {
	var zero A
	j.fn, j.args = nil, zero
	clear(j.panics)
	free := j.free
	free.mu.Lock()
	j.next = free.head
	free.head = j
	free.mu.Unlock()
}

// run executes chunk c, [lo, hi), recording a panic instead of unwinding the
// pool worker.
func (j *job[A]) run(c, lo, hi int) {
	busy.Add(1)
	defer func() {
		busy.Add(-1)
		if r := recover(); r != nil {
			j.panics[c] = r
		}
		j.wg.Done()
	}()
	j.fn(j.args, lo, hi)
}

// A task is one chunk handed to a pool worker.
type task struct {
	j         runner
	c, lo, hi int
}

type runner interface{ run(c, lo, hi int) }

// RowGrain converts a per-row operation cost (scalar ops per row) into a For
// grain: the number of rows whose combined work reaches MinWork. Kernels that
// process [N, F] tensors row-by-row call For(n, RowGrain(perRow), ...) so
// that tiny tensors stay on the fast serial path.
func RowGrain(perRow int) int {
	if perRow < 1 {
		perRow = 1
	}
	g := MinWork / perRow
	if g < 1 {
		g = 1
	}
	return g
}
