package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"

	"repro/internal/graph"
	"repro/internal/obs"
)

// maxRequestBytes bounds a /predict request body; graphs the size of the
// paper's largest (DD, ~5748 nodes) fit with two orders of magnitude to
// spare.
const maxRequestBytes = 16 << 20

// PredictRequest is the JSON body of POST /predict: one graph as a directed
// edge list with dense per-node feature rows.
type PredictRequest struct {
	NumNodes int         `json:"num_nodes"`
	Src      []int       `json:"src"`
	Dst      []int       `json:"dst"`
	X        [][]float64 `json:"x"`
}

// PredictResponse is the JSON answer to POST /predict.
type PredictResponse struct {
	Class  int       `json:"class"`
	Logits []float64 `json:"logits"`
}

// Handler returns the server's HTTP interface:
//
//	POST /predict               one-graph prediction (PredictRequest -> PredictResponse)
//	GET  /healthz               200 while serving, 503 once draining
//	GET  /metrics               Prometheus text exposition of the server's registry
//	GET  /debug/vars            plain-text "name{labels} value" registry snapshot
//	GET  /debug/pprof           Go runtime profiles (heap, goroutine, cpu, ...)
//	GET  /debug/trace           merged Chrome-trace JSON of the tracer's buffered spans
//	GET  /debug/flightrecorder  live flight-recorder snapshot as JSON
//
// Backpressure surfaces as 429, a passed deadline as 504, shutdown as 503,
// malformed input as 400, a body over maxRequestBytes as 413.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /predict", s.handlePredict)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	MountDebug(mux, s.reg, s.opt.Tracer, s.opt.Flight)
	return mux
}

// MountDebug mounts the debug surface shared by every gnnlab process —
// coordinator and worker alike expose the same pprof, registry, trace and
// flight-recorder routes, so an operator never has to remember which process
// speaks which path:
//
//	GET /debug/vars            plain-text "name{labels} value" registry snapshot
//	GET /debug/pprof/...       Go runtime profiles
//	GET /debug/trace           merged Chrome-trace JSON (open at ui.perfetto.dev)
//	GET /debug/flightrecorder  live flight-recorder snapshot as JSON
//
// reg may not be nil; tr and fr may be (their routes then answer 404). On a
// coordinator the trace is the stitched multi-process one: pid 1 is this
// process, pid 2+ one lane per worker.
func MountDebug(mux *http.ServeMux, reg *obs.Registry, tr *obs.Tracer, fr *obs.FlightRecorder) {
	mux.HandleFunc("GET /debug/vars", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		reg.WriteSnapshot(w)
	})
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("GET /debug/trace", func(w http.ResponseWriter, _ *http.Request) {
		if tr == nil {
			http.Error(w, "no tracer configured", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		tr.WriteMergedChromeTrace(w, nil)
	})
	mux.HandleFunc("GET /debug/flightrecorder", func(w http.ResponseWriter, _ *http.Request) {
		if fr == nil {
			http.Error(w, "no flight recorder configured", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fr.WriteJSON(w, "http")
	})
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			http.Error(w, fmt.Sprintf("serve: body exceeds %d bytes", tooLarge.Limit), http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, "serve: unreadable body", http.StatusBadRequest)
		return
	}
	var req PredictRequest
	if err := json.Unmarshal(body, &req); err != nil {
		http.Error(w, fmt.Sprintf("serve: bad JSON: %v", err), http.StatusBadRequest)
		return
	}
	g, err := graph.FromEdgeList(req.NumNodes, req.Src, req.Dst, req.X)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	pred, err := s.Predict(r.Context(), g)
	if err != nil {
		http.Error(w, err.Error(), statusFor(err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(PredictResponse{Class: pred.Class, Logits: pred.Logits}); err != nil {
		// The response line is already out; nothing more to do.
		return
	}
}

// statusFor maps Predict errors onto HTTP status codes.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrPredictedOverSLO):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrInvalid):
		return http.StatusBadRequest
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// Client went away; 499 is the de-facto convention for this.
		return 499
	default:
		return http.StatusInternalServerError
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.Closed() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	s.WriteMetrics(w)
}

// WriteMetrics renders the server's metrics registry in Prometheus text
// exposition format. The serving series keep the names and types of the old
// hand-formatted exposition (gnnserve_queue_depth, gnnserve_requests_total,
// gnnserve_responses_total, gnnserve_batches_total, gnnserve_batch_size,
// gnnserve_phase_seconds); whatever else the caller registered — runtime,
// device, pool collectors — renders alongside them.
func (s *Server) WriteMetrics(w io.Writer) {
	s.reg.WritePrometheus(w)
}
