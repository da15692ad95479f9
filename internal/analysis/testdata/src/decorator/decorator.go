// Package decorator is the fixpoint-termination fixture: a type that
// implements a load-owned interface and calls the same method on a wrapped
// value of it. Interface dispatch makes the decorator one of its own
// callees, so a summary fact that grows with every hop through a callee
// (the lock site's via chain) never reaches a fixpoint unless the engine
// picks a stable representative.
package decorator

import "sync"

// Runner is the load-owned interface both types implement.
type Runner interface {
	RunBatch(n int) int
}

// locked is the base implementation: the only direct lock acquisition.
type locked struct {
	mu    sync.Mutex
	total int
}

func (l *locked) RunBatch(n int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.total += n
	return l.total
}

// Counting decorates a Runner. Its RunBatch resolves, by method-set
// dispatch, to locked.RunBatch, Logging.RunBatch and itself.
type Counting struct {
	inner Runner
	calls int
}

func (c *Counting) RunBatch(n int) int {
	c.calls++
	return c.inner.RunBatch(n)
}

// Logging is a second decorator, so the two also reach each other.
type Logging struct {
	inner Runner
	last  int
}

func (g *Logging) RunBatch(n int) int {
	g.last = g.inner.RunBatch(n)
	return g.last
}

// GoodStack builds decorator-over-decorator-over-base and runs it.
func GoodStack() int {
	var r Runner = &Counting{inner: &Logging{inner: &locked{}}}
	return r.RunBatch(1)
}
