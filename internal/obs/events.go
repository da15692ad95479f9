package obs

import (
	"context"
	"fmt"
	"log/slog"
	"sync"
	"time"
)

// The event log is the discrete half of the observability layer: where spans
// measure durations and metrics accumulate rates, events record the moments
// the fleet changes shape — a worker joins, misses its health checks and is
// evicted, re-joins after a restart, the model is reloaded, the server
// drains. Events are leveled, carry key/value attributes, correlate to
// distributed traces by trace id, and live in a bounded ring buffer so the
// flight recorder can dump the recent past after a crash.

// Event is one recorded occurrence.
type Event struct {
	// Seq is the event's sequence number (1-based, in emission order). It is
	// the deterministic ordering handle: two events from one log never share
	// a Seq, even when their timestamps collide.
	Seq uint64
	// Time is the wall-clock emission time.
	Time time.Time
	// Level is the slog severity.
	Level slog.Level
	// Msg is the event name. By convention a short, stable, hyphenated
	// identifier ("fleet-worker-evicted"), with the variable parts in Attrs.
	Msg string
	// TraceID correlates the event to a distributed trace; 0 when the event
	// is not tied to one request.
	TraceID uint64
	// Attrs are the event's key/value annotations.
	Attrs []Attr
}

// DefaultEventLimit bounds the ring buffer when NewEventLog gets no limit.
const DefaultEventLimit = 1024

// EventLog records structured events into a bounded ring buffer, optionally
// forwarding each to a slog.Logger for live operational output. All methods
// are safe for concurrent use, and a nil *EventLog is a valid disabled log:
// every method no-ops, so instrumented code paths emit unconditionally.
type EventLog struct {
	mu    sync.Mutex
	limit int
	buf   []Event
	w     int // ring write cursor, meaningful once len(buf) == limit
	seq   uint64
	out   *slog.Logger
}

// NewEventLog returns an event log keeping at most limit events (the most
// recent win; limit <= 0 means DefaultEventLimit). A non-nil out receives
// every event as a slog record, with the trace id and attributes as slog
// attrs — that is the live, timestamped view; the ring buffer is the
// deterministic, testable one.
func NewEventLog(limit int, out *slog.Logger) *EventLog {
	if limit <= 0 {
		limit = DefaultEventLimit
	}
	return &EventLog{limit: limit, out: out}
}

// Log records one event at the given level, correlated to traceID (0 for
// none).
func (l *EventLog) Log(level slog.Level, traceID uint64, msg string, attrs ...Attr) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.seq++
	ev := Event{Seq: l.seq, Time: time.Now(), Level: level, Msg: msg, TraceID: traceID, Attrs: attrs}
	if len(l.buf) < l.limit {
		l.buf = append(l.buf, ev)
	} else {
		l.buf[l.w] = ev
		l.w = (l.w + 1) % l.limit
	}
	out := l.out
	l.mu.Unlock()
	if out != nil {
		sa := make([]slog.Attr, 0, len(attrs)+1)
		if traceID != 0 {
			sa = append(sa, slog.String("trace", fmt.Sprintf("%016x", traceID)))
		}
		for _, a := range attrs {
			sa = append(sa, slog.String(a.Key, a.Value))
		}
		out.LogAttrs(context.Background(), level, msg, sa...)
	}
}

// Info records an info-level event with no trace correlation.
func (l *EventLog) Info(msg string, attrs ...Attr) { l.Log(slog.LevelInfo, 0, msg, attrs...) }

// Warn records a warn-level event with no trace correlation.
func (l *EventLog) Warn(msg string, attrs ...Attr) { l.Log(slog.LevelWarn, 0, msg, attrs...) }

// Events returns the buffered events oldest-first (ascending Seq).
func (l *EventLog) Events() []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, 0, len(l.buf))
	out = append(out, l.buf[l.w:]...)
	out = append(out, l.buf[:l.w]...)
	return out
}
