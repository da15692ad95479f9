package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/fw/pygeo"
	"repro/internal/models"
	"repro/internal/obs"
)

// requestBody builds a /predict JSON body for an n-node ring graph whose
// feature values are derived from n, so payloads differ per request.
func requestBody(n, width int) []byte {
	req := PredictRequest{NumNodes: n}
	for i := 0; i < n; i++ {
		req.Src = append(req.Src, i)
		req.Dst = append(req.Dst, (i+1)%n)
		row := make([]float64, width)
		for j := range row {
			row[j] = float64((i+j)%5) / 5
		}
		req.X = append(req.X, row)
	}
	b, err := json.Marshal(req)
	if err != nil {
		panic(err)
	}
	return b
}

func postPredict(ts *httptest.Server, body []byte) (int, []byte, error) {
	resp, err := ts.Client().Post(ts.URL+"/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// TestServeEndToEndRace is the serving subsystem's end-to-end concurrency
// test (run under -race in CI): many concurrent HTTP clients against the
// gnnserve handler backed by a real model, asserting that every request
// gets exactly one well-formed response, that no forward batch exceeds the
// configured maximum, and that shutdown drains accepted requests.
func TestServeEndToEndRace(t *testing.T) {
	const (
		features = 6
		classes  = 4
		maxBatch = 4
		clients  = 20
		perEach  = 3
	)
	m := models.New("GCN", pygeo.New(), models.Config{
		Task: models.GraphClassification, In: features, Hidden: 8, Out: 8,
		Classes: classes, Layers: 2, Seed: 7,
	})
	reps := []Replica{
		NewModelReplica(m, device.Default()),
		NewModelReplica(m, device.Default()),
	}
	s := New(reps, Options{
		MaxBatch: maxBatch, QueueDepth: 128, BatchWindow: time.Millisecond,
		Timeout: 30 * time.Second, NumFeatures: features,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

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
					errs <- fmt.Errorf("status %d: %s", code, body)
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
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := s.Stats()
	total := int64(clients * perEach)
	if st.Accepted != total || st.Responded != total {
		t.Fatalf("accepted %d / responded %d, want %d each", st.Accepted, st.Responded, total)
	}
	// The top bucket bound is maxBatch, so every batch within the cap lands
	// at or below it and none in the overflow bucket.
	bounds, cum := st.BatchSizes.Bounds(), st.BatchSizes.Cumulatives()
	if top := len(bounds) - 1; bounds[top] != maxBatch || cum[top] != st.BatchSizes.N() {
		t.Fatalf("%d of %d batches exceed the configured max %d", st.BatchSizes.N()-cum[top], st.BatchSizes.N(), maxBatch)
	}
	if st.Batches < total/maxBatch {
		t.Fatalf("implausible batch count %d for %d requests", st.Batches, total)
	}

	// Drain: requests accepted before shutdown are answered, not dropped.
	drainBodies := make(chan int, 8)
	var dwg sync.WaitGroup
	for i := 0; i < 8; i++ {
		dwg.Add(1)
		go func(i int) {
			defer dwg.Done()
			code, _, err := postPredict(ts, requestBody(4+i%5, features))
			if err != nil {
				t.Errorf("drain client: %v", err)
				return
			}
			drainBodies <- code
		}(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Accepted < total+8 {
		if time.Now().After(deadline) {
			t.Fatalf("drain requests not accepted: %+v", s.Stats())
		}
		time.Sleep(500 * time.Microsecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	dwg.Wait()
	close(drainBodies)
	got := 0
	for code := range drainBodies {
		got++
		if code != http.StatusOK {
			t.Fatalf("accepted request answered %d during drain", code)
		}
	}
	if got != 8 {
		t.Fatalf("drained %d of 8 accepted requests", got)
	}

	// After shutdown the handler reports draining and refuses new work.
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz after shutdown: %d, want 503", resp.StatusCode)
	}
	if code, _, err := postPredict(ts, requestBody(4, features)); err != nil || code != http.StatusServiceUnavailable {
		t.Fatalf("predict after shutdown: code %d err %v, want 503", code, err)
	}
}

func TestHTTPBackpressure429(t *testing.T) {
	rep := &fakeReplica{be: pygeo.New(), classes: 3, delay: 30 * time.Millisecond}
	s := New([]Replica{rep}, Options{
		MaxBatch: 1, QueueDepth: 1, BatchWindow: -1, Timeout: 30 * time.Second,
	})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 16
	codes := make(chan int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, _, err := postPredict(ts, requestBody(5, 2))
			if err != nil {
				t.Errorf("client: %v", err)
				return
			}
			codes <- code
		}()
	}
	wg.Wait()
	close(codes)
	var ok, throttled, other int
	for code := range codes {
		switch code {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			throttled++
		default:
			other++
		}
	}
	if other != 0 {
		t.Fatalf("unexpected status codes: ok=%d 429=%d other=%d", ok, throttled, other)
	}
	if ok+throttled != n {
		t.Fatalf("lost responses: ok=%d 429=%d of %d", ok, throttled, n)
	}
	if throttled == 0 {
		t.Fatal("no 429 despite queue depth 1 and slow replica")
	}
}

func TestHTTPBadRequests(t *testing.T) {
	s, _ := newFakeServer(t, 3, 0, Options{NumFeatures: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := map[string]struct {
		body string
		want int
	}{
		"not json":       {"{", http.StatusBadRequest},
		"negative nodes": {`{"num_nodes":-3,"src":[],"dst":[],"x":[]}`, http.StatusBadRequest},
		"edge range":     {`{"num_nodes":2,"src":[9],"dst":[0],"x":[[1,2],[3,4]]}`, http.StatusBadRequest},
		"ragged x":       {`{"num_nodes":2,"src":[0],"dst":[1],"x":[[1,2],[3]]}`, http.StatusBadRequest},
		"width mismatch": {`{"num_nodes":1,"src":[],"dst":[],"x":[[1,2,3]]}`, http.StatusBadRequest},
		"empty graph":    {`{"num_nodes":0,"src":[],"dst":[],"x":[]}`, http.StatusBadRequest},
		// One byte over the limit: too large is its own status, not "malformed".
		"oversized body": {strings.Repeat(" ", maxRequestBytes+1), http.StatusRequestEntityTooLarge},
	}
	for name, c := range cases {
		code, _, err := postPredict(ts, []byte(c.body))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if code != c.want {
			t.Errorf("%s: status %d, want %d", name, code, c.want)
		}
	}

	// Wrong method and unknown path round out the routing checks.
	resp, err := ts.Client().Get(ts.URL + "/predict")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /predict: status %d, want 405", resp.StatusCode)
	}
}

func TestHTTPMetricsAndHealth(t *testing.T) {
	s, _ := newFakeServer(t, 3, 0, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code, _, err := postPredict(ts, requestBody(4, 2)); err != nil || code != http.StatusOK {
		t.Fatalf("predict: code %d err %v", code, err)
	}
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(body)) != "ok" {
		t.Fatalf("healthz: %d %q", resp.StatusCode, body)
	}
	resp, err = ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), `gnnserve_requests_total{outcome="accepted"} 1`) {
		t.Fatalf("metrics body missing accepted counter:\n%s", body)
	}
}

// TestDebugSurface pins the shared debug mux both gnnserve and gnnworker
// mount: the registry snapshot, the merged Chrome trace, and the live
// flight-recorder snapshot all answer on a configured server, and the obs
// routes 404 cleanly (instead of panicking on nil) when unconfigured.
func TestDebugSurface(t *testing.T) {
	get := func(ts *httptest.Server, path string) (int, string) {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	tracer := obs.NewTracer(0)
	events := obs.NewEventLog(0, nil)
	reg := obs.NewRegistry()
	flight := obs.NewFlightRecorder(tracer, events, reg, obs.FlightOptions{})
	s, _ := newFakeServer(t, 3, 0, Options{
		Registry: reg, Tracer: tracer, Events: events, Flight: flight,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if code, _, err := postPredict(ts, requestBody(4, 2)); err != nil || code != http.StatusOK {
		t.Fatalf("predict: code %d err %v", code, err)
	}

	if code, body := get(ts, "/debug/vars"); code != http.StatusOK ||
		!strings.Contains(body, "gnnserve_responses_total 1") {
		t.Fatalf("debug/vars: %d\n%s", code, body)
	}

	code, body := get(ts, "/debug/trace")
	if code != http.StatusOK {
		t.Fatalf("debug/trace: %d %s", code, body)
	}
	var traceEvents []map[string]any
	if err := json.Unmarshal([]byte(body), &traceEvents); err != nil {
		t.Fatalf("debug/trace is not Chrome-trace JSON: %v", err)
	}
	if len(traceEvents) == 0 {
		t.Fatal("debug/trace holds no span events after a served request")
	}

	code, body = get(ts, "/debug/flightrecorder")
	if code != http.StatusOK {
		t.Fatalf("debug/flightrecorder: %d %s", code, body)
	}
	var snap obs.FlightSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("flight snapshot is not JSON: %v", err)
	}
	if snap.Reason != "http" || len(snap.Spans) == 0 ||
		!strings.Contains(snap.Metrics, "gnnserve_responses_total") {
		t.Fatalf("flight snapshot content: reason %q, %d spans", snap.Reason, len(snap.Spans))
	}

	// Unconfigured server: 404s, never nil-pointer panics.
	bare, _ := newFakeServer(t, 3, 0, Options{})
	tsBare := httptest.NewServer(bare.Handler())
	defer tsBare.Close()
	if code, _ := get(tsBare, "/debug/trace"); code != http.StatusNotFound {
		t.Fatalf("bare debug/trace: %d, want 404", code)
	}
	if code, _ := get(tsBare, "/debug/flightrecorder"); code != http.StatusNotFound {
		t.Fatalf("bare debug/flightrecorder: %d, want 404", code)
	}
}
