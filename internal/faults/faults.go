// Package faults is a tiny failpoint layer for fault-injection tests: a
// process-global registry of named, armed trigger points that production
// code consults at the few places where a crash or I/O error must be
// provable to recover from (checkpoint writes, end-of-epoch snapshots).
//
// A failpoint is armed with Enable(name, n); the meaning of n belongs to the
// consulting site — Writer fails the write that would carry the byte stream
// past n bytes, At(name, i) fires when i == n. Unarmed failpoints cost one
// mutex-guarded map lookup and are never hit, so the hooks stay in
// production code paths permanently (the pattern GoogleCloudPlatform's
// gofail and etcd's failpoints use, reduced to what the checkpoint tests
// need).
package faults

import (
	"errors"
	"fmt"
	"io"
	"sync"
)

// ErrInjected is the error every armed write failpoint returns; tests
// assert on it with errors.Is to tell injected failures from real ones.
var ErrInjected = errors.New("faults: injected failure")

var (
	mu     sync.Mutex
	points = map[string]int64{}
	hits   = map[string]int64{}
)

// Enable arms the named failpoint with threshold n. Re-arming replaces the
// previous threshold and resets the hit count.
//
//gnnvet:allow unreachable -- TestDirSaveFailpointLeavesPreviousValid
func Enable(name string, n int64) {
	mu.Lock()
	defer mu.Unlock()
	points[name] = n
	hits[name] = 0
}

// Disable clears the named failpoint.
//
//gnnvet:allow unreachable -- TestDirSaveFailpointLeavesPreviousValid
func Disable(name string) {
	mu.Lock()
	defer mu.Unlock()
	delete(points, name)
	delete(hits, name)
}

// Reset clears every failpoint — test cleanup.
//
//gnnvet:allow unreachable -- TestDirSaveFailpointLeavesPreviousValid
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	points = map[string]int64{}
	hits = map[string]int64{}
}

// Armed reports the named failpoint's threshold, and whether it is armed.
func Armed(name string) (int64, bool) {
	mu.Lock()
	defer mu.Unlock()
	n, ok := points[name]
	return n, ok
}

// Hits reports how many times the named failpoint has fired.
//
//gnnvet:allow unreachable -- TestRearmResetsHits
func Hits(name string) int64 {
	mu.Lock()
	defer mu.Unlock()
	return hits[name]
}

func fired(name string) {
	mu.Lock()
	defer mu.Unlock()
	hits[name]++
}

// At reports whether the named failpoint is armed with threshold exactly i —
// the "crash after epoch n" trigger shape. It records a hit when it fires.
func At(name string, i int64) bool {
	n, ok := Armed(name)
	if !ok || n != i {
		return false
	}
	fired(name)
	return true
}

// Writer wraps w with the named write failpoint: when armed with n, the
// write that would carry the total byte count past n fails with ErrInjected
// after writing only the bytes up to n — a partial write, exactly what a
// full disk or a crash mid-write leaves behind. Unarmed, it is a
// passthrough.
func Writer(name string, w io.Writer) io.Writer {
	return &failWriter{name: name, w: w}
}

type failWriter struct {
	name    string
	w       io.Writer
	written int64
}

func (f *failWriter) Write(p []byte) (int, error) {
	n, armed := Armed(f.name)
	if !armed || f.written+int64(len(p)) <= n {
		m, err := f.w.Write(p)
		f.written += int64(m)
		return m, err
	}
	keep := n - f.written
	if keep < 0 {
		keep = 0
	}
	m, err := f.w.Write(p[:keep])
	f.written += int64(m)
	if err != nil {
		return m, err
	}
	fired(f.name)
	return m, fmt.Errorf("%w: %s at byte %d", ErrInjected, f.name, n)
}
