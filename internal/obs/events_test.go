package obs

import (
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"testing"
)

func TestEventLogOrderAndText(t *testing.T) {
	l := NewEventLog(0, nil)
	l.Info("fleet-worker-join", String("addr", "w0:9090"), Int("pods", 2))
	l.Warn("fleet-worker-evicted", String("addr", "w0:9090"))
	l.Log(slog.LevelError, TraceIDForJob(1), "fleet-replica-panic", String("panic", "boom"))

	evs := l.Events()
	if len(evs) != 3 {
		t.Fatalf("%d events, want 3", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d — seqs must ascend from 1", i, ev.Seq)
		}
	}
	if evs[2].TraceID != TraceIDForJob(1) {
		t.Fatal("trace correlation lost")
	}

	var got []string
	for _, ev := range evs {
		line := fmt.Sprintf("%s %s", ev.Level, ev.Msg)
		for _, a := range ev.Attrs {
			line += fmt.Sprintf(" %s=%s", a.Key, a.Value)
		}
		got = append(got, line)
	}
	want := []string{
		"INFO fleet-worker-join addr=w0:9090 pods=2",
		"WARN fleet-worker-evicted addr=w0:9090",
		"ERROR fleet-replica-panic panic=boom",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("events:\n got %q\nwant %q", got, want)
	}
}

func TestEventLogRingBounds(t *testing.T) {
	l := NewEventLog(4, nil)
	for i := 0; i < 10; i++ {
		l.Info("e", Int("i", i))
	}
	evs := l.Events()
	if len(evs) != 4 {
		t.Fatalf("%d events buffered, want 4", len(evs))
	}
	if evs[0].Seq != 7 || evs[3].Seq != 10 {
		t.Fatalf("ring kept seqs %d..%d, want the most recent 7..10", evs[0].Seq, evs[3].Seq)
	}
}

func TestEventLogSlogForwarding(t *testing.T) {
	var sb strings.Builder
	out := slog.New(slog.NewTextHandler(&sb, &slog.HandlerOptions{
		// Strip the timestamp so the assertion is stable.
		ReplaceAttr: func(_ []string, a slog.Attr) slog.Attr {
			if a.Key == slog.TimeKey {
				return slog.Attr{}
			}
			return a
		},
	}))
	l := NewEventLog(0, out)
	l.Log(slog.LevelWarn, TraceIDForJob(2), "slo-breach", String("p99", "1.5s"))

	got := sb.String()
	for _, frag := range []string{"level=WARN", "msg=slo-breach", "p99=1.5s",
		fmt.Sprintf("trace=%016x", TraceIDForJob(2))} {
		if !strings.Contains(got, frag) {
			t.Fatalf("slog output %q missing %q", got, frag)
		}
	}
}

func TestEventLogNilAndConcurrent(t *testing.T) {
	var nilLog *EventLog
	nilLog.Info("ignored")
	nilLog.Log(slog.LevelError, 1, "ignored")
	if nilLog.Events() != nil {
		t.Fatal("nil event log not inert")
	}

	l := NewEventLog(64, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				l.Info("concurrent")
			}
		}()
	}
	wg.Wait()
	seen := map[uint64]bool{}
	for _, ev := range l.Events() {
		if seen[ev.Seq] {
			t.Fatalf("duplicate seq %d", ev.Seq)
		}
		seen[ev.Seq] = true
	}
}
