package obs

import (
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/device"
)

func TestSpanNesting(t *testing.T) {
	tr := NewTracer(0)
	root := tr.Start("epoch", Int("epoch", 3))
	batch := root.Child("batch", Int("batch", 0))
	fwd := batch.Child("forward")
	fwd.End()
	batch.Annotate(String("note", "done"))
	batch.End()
	root.End()

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	// Commit order is end order: forward, batch, epoch.
	if spans[0].Name != "forward" || spans[1].Name != "batch" || spans[2].Name != "epoch" {
		t.Fatalf("span order = %v", []string{spans[0].Name, spans[1].Name, spans[2].Name})
	}
	if spans[2].ParentID != 0 {
		t.Errorf("root parent = %d, want 0", spans[2].ParentID)
	}
	if spans[1].ParentID != spans[2].ID {
		t.Errorf("batch parent = %d, want epoch id %d", spans[1].ParentID, spans[2].ID)
	}
	if spans[0].ParentID != spans[1].ID {
		t.Errorf("forward parent = %d, want batch id %d", spans[0].ParentID, spans[1].ID)
	}
	if spans[0].Lane != spans[2].Lane {
		t.Errorf("child lane %d differs from root lane %d", spans[0].Lane, spans[2].Lane)
	}
	found := false
	for _, a := range spans[1].Attrs {
		if a.Key == "note" && a.Value == "done" {
			found = true
		}
	}
	if !found {
		t.Errorf("Annotate attr missing: %v", spans[1].Attrs)
	}
}

func TestRingBufferBounds(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Start("s", Int("i", i)).End()
	}
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4 (ring limit)", len(spans))
	}
	// The most recent 4 survive, oldest-first.
	for j, want := range []string{"6", "7", "8", "9"} {
		if spans[j].Attrs[0].Value != want {
			t.Errorf("span %d = i=%s, want i=%s", j, spans[j].Attrs[0].Value, want)
		}
	}
}

func TestLaneAllocation(t *testing.T) {
	tr := NewTracer(0)
	a := tr.Start("a")
	b := tr.Start("b")
	if a.lane == b.lane {
		t.Errorf("concurrent roots share lane %d", a.lane)
	}
	a.End()
	c := tr.Start("c")
	if c.lane != a.lane {
		t.Errorf("freed lane %d not reused, got %d", a.lane, c.lane)
	}
	b.End()
	c.End()
}

func TestEndIdempotent(t *testing.T) {
	tr := NewTracer(0)
	s := tr.Start("once")
	s.End()
	s.End()
	if got := len(tr.Spans()); got != 1 {
		t.Errorf("double End committed %d spans, want 1", got)
	}
}

func TestNilTracer(t *testing.T) {
	var tr *Tracer
	s := tr.Start("nop", Int("k", 1))
	c := s.Child("child")
	c.Annotate(String("k", "v"))
	c.End()
	s.End()
	if tr.Spans() != nil {
		t.Error("nil tracer not empty")
	}
	tr.Reset()
	var sb strings.Builder
	if err := tr.WriteChromeTrace(&sb, nil); err != nil {
		t.Fatalf("nil tracer WriteChromeTrace: %v", err)
	}
	if !strings.HasPrefix(sb.String(), "[") {
		t.Errorf("nil tracer trace not JSON array: %s", sb.String())
	}
}

// TestSpanInContext: a span rides a context to a callee that takes nothing
// else, children opened from it nest under it, and the untraced case (no
// span, nil span) costs the callee nothing but a nil check it never writes.
func TestSpanInContext(t *testing.T) {
	tr := NewTracer(0)
	root := tr.Start("batch")
	ctx := ContextWithSpan(context.Background(), root)
	SpanFromContext(ctx).Child("collate").End()
	root.End()
	spans := tr.Spans()
	if len(spans) != 2 || spans[0].Name != "collate" || spans[0].ParentID != spans[1].ID {
		t.Fatalf("child opened through the context did not nest under its carrier: %+v", spans)
	}

	bare := context.Background()
	if SpanFromContext(bare) != nil {
		t.Error("a context without a span yielded one")
	}
	if ContextWithSpan(bare, nil) != bare {
		t.Error("storing a nil span allocated a new context")
	}
	SpanFromContext(bare).Child("nop").End() // must not panic
}

func TestReset(t *testing.T) {
	tr := NewTracer(2)
	for i := 0; i < 5; i++ {
		tr.Start("s").End()
	}
	tr.Reset()
	if len(tr.Spans()) != 0 {
		t.Error("Reset left state behind")
	}
	tr.Start("fresh").End()
	if got := len(tr.Spans()); got != 1 {
		t.Errorf("post-Reset spans = %d, want 1", got)
	}
}

func TestConcurrentSpans(t *testing.T) {
	tr := NewTracer(100000)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				root := tr.Start("worker")
				root.Child("step").End()
				root.End()
			}
		}()
	}
	wg.Wait()
	if got := len(tr.Spans()); got != 16*200*2 {
		t.Errorf("got %d spans, want %d", got, 16*200*2)
	}
	ids := map[uint64]bool{}
	for _, s := range tr.Spans() {
		if ids[s.ID] {
			t.Fatalf("duplicate span id %d", s.ID)
		}
		ids[s.ID] = true
	}
}

func TestWriteChromeTraceCombined(t *testing.T) {
	tr := NewTracer(0)
	s := tr.Start("epoch")
	s.Child("forward", String("layer", "gcn0")).End()
	s.End()

	kernels := []device.KernelEvent{
		{Start: 0, HostDur: 1000, SimDur: 2000, Flops: 10, Bytes: 20},
	}
	var sb strings.Builder
	if err := tr.WriteChromeTrace(&sb, kernels); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "[") || !strings.HasSuffix(strings.TrimSpace(out), "]") {
		t.Fatalf("not a JSON array:\n%s", out)
	}
	for _, want := range []string{`"kernel-0"`, `"epoch"`, `"forward"`, `"layer"`, `"span"`, `"parent"`} {
		if !strings.Contains(out, want) {
			t.Errorf("combined trace missing %s:\n%s", want, out)
		}
	}
	// Spans render on tids >= 2; kernels keep tids 0 and 1.
	if !strings.Contains(out, `"tid":2`) {
		t.Errorf("span events not on tid 2:\n%s", out)
	}
}
