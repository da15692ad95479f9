package serve

import (
	"context"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// parseExposition splits Prometheus text output into TYPE declarations and
// sample lines ("name{labels}" -> value).
func parseExposition(t *testing.T, out string) (types map[string]string, samples map[string]float64) {
	t.Helper()
	types = map[string]string{}
	samples = map[string]float64{}
	for _, line := range strings.Split(out, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			types[fields[2]] = fields[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		samples[line[:i]] = v
	}
	return types, samples
}

// TestWriteMetricsCompat pins the registry-backed exposition to the contract
// of the old hand-formatted WriteMetrics: every legacy serving metric keeps
// its name and type, and the batch-size histogram is well-formed — cumulative
// buckets, a final +Inf bucket, and +Inf equal to the count.
func TestWriteMetricsCompat(t *testing.T) {
	s, _ := newFakeServer(t, 3, 0, Options{MaxBatch: 4})
	for i := 0; i < 3; i++ {
		if _, err := s.Predict(context.Background(), ringGraph(4, 2)); err != nil {
			t.Fatalf("Predict: %v", err)
		}
	}
	var sb strings.Builder
	s.WriteMetrics(&sb)
	types, samples := parseExposition(t, sb.String())

	wantTypes := map[string]string{
		"gnnserve_queue_depth":     "gauge",
		"gnnserve_requests_total":  "counter",
		"gnnserve_responses_total": "counter",
		"gnnserve_batches_total":   "counter",
		"gnnserve_batch_size":      "histogram",
		"gnnserve_phase_seconds":   "counter",
		// The coalescer's own account of itself.
		"gnnserve_queue_wait_seconds": "histogram",
		"gnnserve_batch_close_total":  "counter",
		"gnnserve_pool_utilization":   "gauge",
	}
	for name, want := range wantTypes {
		if got := types[name]; got != want {
			t.Errorf("metric %s has type %q, want %q", name, got, want)
		}
	}

	// The histogram's buckets must be cumulative and closed off by +Inf ==
	// count — the ordering guarantee the old hand-rolled exposition lacked.
	var prev float64
	var bounds []string
	for key := range samples {
		if strings.HasPrefix(key, "gnnserve_batch_size_bucket{le=") && !strings.Contains(key, "+Inf") {
			bounds = append(bounds, key)
		}
	}
	if len(bounds) == 0 {
		t.Fatal("no finite batch-size buckets")
	}
	// Bucket keys render in ascending bound order in the exposition; re-check
	// cumulativity by walking them in that order.
	var sb2 strings.Builder
	s.WriteMetrics(&sb2)
	for _, line := range strings.Split(sb2.String(), "\n") {
		if !strings.HasPrefix(line, "gnnserve_batch_size_bucket{") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, _ := strconv.ParseFloat(line[i+1:], 64)
		if v < prev {
			t.Errorf("bucket %q not cumulative (%g < %g)", line[:i], v, prev)
		}
		prev = v
	}
	inf := samples[`gnnserve_batch_size_bucket{le="+Inf"}`]
	count := samples["gnnserve_batch_size_count"]
	if inf != count || count != 3 {
		t.Errorf("+Inf bucket %g and count %g must both equal 3", inf, count)
	}
	if samples["gnnserve_responses_total"] != 3 {
		t.Errorf("responses_total = %g, want 3", samples["gnnserve_responses_total"])
	}
	// Every request handed to a worker has a queue wait on record, and every
	// group has exactly one close reason.
	if got := samples["gnnserve_queue_wait_seconds_count"]; got != 3 {
		t.Errorf("queue_wait_seconds_count = %g, want 3", got)
	}
	var closed float64
	for _, reason := range []string{"full", "idle", "window", "drain"} {
		v, ok := samples[`gnnserve_batch_close_total{reason="`+reason+`"}`]
		if !ok {
			t.Errorf("batch_close_total has no %q series", reason)
		}
		closed += v
	}
	if closed != samples["gnnserve_batches_total"] {
		t.Errorf("batch_close_total sums to %g over %g batches", closed, samples["gnnserve_batches_total"])
	}
}

// TestScrapeDuringTraffic is the -race regression test for routing the
// formerly unsynchronized histogram through the locked registry: scrapes run
// concurrently with predictions.
func TestScrapeDuringTraffic(t *testing.T) {
	s, _ := newFakeServer(t, 3, 0, Options{MaxBatch: 4, QueueDepth: 64})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if _, err := s.Predict(context.Background(), ringGraph(4, 2)); err != nil {
					t.Errorf("Predict: %v", err)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			var sb strings.Builder
			s.WriteMetrics(&sb)
			if !strings.Contains(sb.String(), "gnnserve_requests_total") {
				t.Error("scrape missing serving metrics")
				return
			}
			_ = s.Stats()
		}
	}()
	wg.Wait()
	<-done

	var sb strings.Builder
	s.WriteMetrics(&sb)
	_, samples := parseExposition(t, sb.String())
	if got := samples[`gnnserve_requests_total{outcome="accepted"}`]; got != 100 {
		t.Errorf("accepted = %g, want 100", got)
	}
	if got := samples["gnnserve_responses_total"]; got != 100 {
		t.Errorf("responses = %g, want 100", got)
	}
}
