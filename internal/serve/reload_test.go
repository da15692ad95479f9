package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/fw/dglb"
	"repro/internal/fw/pygeo"
	"repro/internal/models"
	"repro/internal/tensor"
)

func reloadModel(seed uint64) models.Model {
	return models.New("GCN", pygeo.New(), models.Config{
		Task: models.GraphClassification, In: 6, Hidden: 8, Out: 8,
		Classes: 4, Layers: 2, Seed: seed,
	})
}

// TestReloadUnderConcurrentTraffic swaps the model repeatedly while the
// existing concurrent-race HTTP load runs: every request must be answered
// with a well-formed prediction — zero drops, zero errors — and in-flight
// batches must finish on whichever weights they started with (the argmax
// sanity checks would catch a half-swapped forward as malformed logits).
func TestReloadUnderConcurrentTraffic(t *testing.T) {
	const (
		features = 6
		classes  = 4
		clients  = 20
		perEach  = 3
		swaps    = 40
	)
	reps := []Replica{
		NewModelReplica(reloadModel(7), device.Default()),
		NewModelReplica(reloadModel(7), device.Default()),
	}
	s := New(reps, Options{
		MaxBatch: 4, QueueDepth: 128, BatchWindow: time.Millisecond,
		Timeout: 30 * time.Second, NumFeatures: features,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	stop := make(chan struct{})
	var swapWG sync.WaitGroup
	swapWG.Add(1)
	go func() {
		defer swapWG.Done()
		for i := 0; i < swaps; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.SwapModel(reloadModel(uint64(8 + i%2))); err != nil {
				t.Errorf("swap %d: %v", i, err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	var wg sync.WaitGroup
	errs := make(chan error, clients*perEach)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < perEach; k++ {
				code, body, err := postPredict(ts, requestBody(3+(c+k)%9, features))
				if err != nil {
					errs <- err
					return
				}
				if code != http.StatusOK {
					errs <- fmt.Errorf("status %d during reload: %s", code, body)
					return
				}
				var pr PredictResponse
				if err := json.Unmarshal(body, &pr); err != nil {
					errs <- fmt.Errorf("bad response JSON: %v", err)
					return
				}
				if len(pr.Logits) != classes || pr.Class < 0 || pr.Class >= classes {
					errs <- fmt.Errorf("malformed prediction %+v", pr)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	swapWG.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := s.Stats()
	total := int64(clients * perEach)
	if st.Accepted != total || st.Responded != total {
		t.Fatalf("accepted %d / responded %d, want %d each — a reload dropped requests",
			st.Accepted, st.Responded, total)
	}

	var sb strings.Builder
	if err := s.reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `gnnserve_reloads_total{outcome="ok"}`) {
		t.Fatal("reload counter missing from /metrics exposition")
	}
}

func TestSwapModelValidation(t *testing.T) {
	s := New([]Replica{NewModelReplica(reloadModel(1), nil)}, Options{})
	defer s.Shutdown(t.Context())

	if err := s.SwapModel(nil); err == nil {
		t.Fatal("nil model must be rejected")
	}
	wrongBE := models.New("GCN", dglb.New(), models.Config{
		Task: models.GraphClassification, In: 6, Hidden: 8, Out: 8,
		Classes: 4, Layers: 2, Seed: 2,
	})
	err := s.SwapModel(wrongBE)
	if err == nil || !strings.Contains(err.Error(), "backend") {
		t.Fatalf("backend mismatch must be rejected descriptively, got %v", err)
	}

	var sb strings.Builder
	if err := s.reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `gnnserve_reloads_total{outcome="error"} 2`) {
		t.Fatalf("reload error counter not recorded:\n%s", sb.String())
	}
}

func TestSwapModelNeedsSwappableReplicas(t *testing.T) {
	s, _ := newFakeServer(t, 3, 0, Options{})
	err := s.SwapModel(reloadModel(3))
	if err == nil || !strings.Contains(err.Error(), "does not support model swapping") {
		t.Fatalf("non-swappable replica must fail the reload, got %v", err)
	}
}

// TestCompiledSwapClosesRetiredTapes: a reload used to drop a compiled
// replica's CompiledInfer without Close, so every swap leaked the old tapes'
// device accounting and pooled buffers. After any number of swaps and a
// batch, the device holds one tape's worth again.
func TestCompiledSwapClosesRetiredTapes(t *testing.T) {
	dev := device.New("cuda:0", device.RTX2080Ti())
	s := New([]Replica{NewCompiledModelReplica(reloadModel(7), dev, tensor.F64)},
		Options{MaxBatch: 1, NumFeatures: 6})
	defer s.Shutdown(t.Context())
	predict := func() {
		t.Helper()
		if _, err := s.Predict(t.Context(), ringGraph(7, 6)); err != nil {
			t.Fatal(err)
		}
	}
	predict()
	oneTape := dev.Stats().AllocBytes
	if oneTape == 0 {
		t.Fatal("a recorded tape holds no device memory; the test measures nothing")
	}
	for round, swaps := range []int{3, 1, 1} {
		for i := 0; i < swaps; i++ {
			if err := s.SwapModel(reloadModel(uint64(8 + i))); err != nil {
				t.Fatal(err)
			}
		}
		predict()
		if got := dev.Stats().AllocBytes; got != oneTape {
			t.Fatalf("round %d (%d swaps): device holds %d bytes, one tape is %d: retired tapes were not closed",
				round, swaps, got, oneTape)
		}
	}

	// Swaps racing batches: every answer arrives, and once traffic stops one
	// more batch leaves a single tape behind.
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 10; k++ {
				if _, err := s.Predict(t.Context(), ringGraph(7, 6)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 0; i < 10; i++ {
		if err := s.SwapModel(reloadModel(uint64(20 + i))); err != nil {
			t.Error(err)
		}
	}
	wg.Wait()
	predict()
	if got := dev.Stats().AllocBytes; got != oneTape {
		t.Fatalf("after swaps racing batches: device holds %d bytes, one tape is %d", got, oneTape)
	}
}
