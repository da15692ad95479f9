package fleet

import (
	"context"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/rpc"
)

// scriptedWorker is a loopback worker that speaks the wire protocol by
// hand. Its first connection sends firstDone(n) as every JobDone payload
// (nil: a well-formed one) and answers pings with an empty Pong when
// emptyPong is set. Every later connection behaves: all rows, then a
// well-formed JobDone and Pong. It returns the address and the number of
// jobs received over all connections.
func scriptedWorker(t *testing.T, hash [32]byte, firstDone func(n int) []byte, emptyPong bool) (string, *atomic.Int32) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		jobs  atomic.Int32
		mu    sync.Mutex
		conns []net.Conn
		wg    sync.WaitGroup
	)
	serveConn := func(c net.Conn, first bool) {
		defer wg.Done()
		if f, err := rpc.ReadFrame(c); err != nil || f.Type != rpc.FrameHello {
			return
		}
		pl, _ := rpc.AppendWelcome(nil, rpc.Welcome{
			Version: rpc.ProtocolVersion, MaxPods: 1, ModelHash: hash, WorkerID: "scripted",
		})
		if rpc.WriteFrame(c, rpc.Frame{Type: rpc.FrameWelcome, Payload: pl}) != nil {
			return
		}
		for {
			f, err := rpc.ReadFrame(c)
			if err != nil {
				return
			}
			var out []rpc.Frame
			switch f.Type {
			case rpc.FrameJob:
				jobs.Add(1)
				_, graphs, err := rpc.DecodeJob(f.Payload)
				if err != nil {
					t.Errorf("scripted worker: %v", err)
					return
				}
				n := len(graphs)
				for i := 0; i < n; i++ {
					row, _ := rpc.AppendRow(nil, rpc.Row{Index: i, Class: 1, Logits: make([]float64, testClasses)})
					out = append(out, rpc.Frame{Type: rpc.FrameRow, Job: f.Job, Payload: row})
				}
				done := rpc.AppendJobDone(nil, rpc.JobDone{Rows: n})
				if first && firstDone != nil {
					done = firstDone(n)
				}
				out = append(out, rpc.Frame{Type: rpc.FrameJobDone, Job: f.Job, Payload: done})
			case rpc.FramePing:
				pong := rpc.AppendPong(nil, rpc.Pong{})
				if first && emptyPong {
					pong = nil
				}
				out = append(out, rpc.Frame{Type: rpc.FramePong, Job: f.Job, Payload: pong})
			}
			for _, fr := range out {
				if rpc.WriteFrame(c, fr) != nil {
					return
				}
			}
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for first := true; ; first = false {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
			wg.Add(1)
			go serveConn(c, first)
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
		wg.Wait()
	})
	return ln.Addr().String(), &jobs
}

// TestReaderDecodesJobDoneAndPong: the coordinator decodes every JobDone
// and Pong payload. A malformed one evicts the link like a malformed Row,
// JobErr or Spans frame; a JobDone whose row count disagrees with the job
// fails the job. Either way the request is answered exactly once.
func TestReaderDecodesJobDoneAndPong(t *testing.T) {
	batch := []*graph.Graph{ringGraph(5, testFeatures), ringGraph(6, testFeatures)}
	cases := []struct {
		name      string
		firstDone func(n int) []byte
		emptyPong bool
		// evicted: the first link is evicted, and the job succeeds on the
		// re-joined link; otherwise the job fails with wantErr.
		evicted bool
		wantErr string
	}{
		{name: "truncated JobDone", evicted: true,
			firstDone: func(n int) []byte { return rpc.AppendJobDone(nil, rpc.JobDone{Rows: n})[:2] }},
		{name: "JobDone claims an extra row", wantErr: "claiming 3",
			firstDone: func(n int) []byte { return rpc.AppendJobDone(nil, rpc.JobDone{Rows: n + 1}) }},
		{name: "empty Pong", emptyPong: true, evicted: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opt := fastFleetOptions(t)
			addr, jobs := scriptedWorker(t, opt.ExpectHash, tc.firstDone, tc.emptyPong)
			mgr := connectManager(t, []string{addr}, opt)
			if tc.emptyPong {
				waitFor(t, 10*time.Second, "eviction on an empty Pong", func() bool {
					_, evictions, _ := mgr.Stats()
					return evictions >= 1
				})
			}

			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			preds, err := mgr.RunBatch(ctx, batch)
			if tc.evicted {
				if err != nil {
					t.Fatalf("RunBatch after eviction and re-join: %v", err)
				}
				if len(preds) != len(batch) {
					t.Fatalf("%d predictions for %d graphs", len(preds), len(batch))
				}
				waitFor(t, 10*time.Second, "one eviction and one re-join", func() bool {
					_, evictions, rejoins := mgr.Stats()
					return evictions == 1 && rejoins == 1
				})
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("RunBatch = %v, want an error containing %q", err, tc.wantErr)
			}
			if _, evictions, _ := mgr.Stats(); evictions != 0 || jobs.Load() != 1 {
				t.Fatalf("evictions %d, jobs sent %d; a well-formed JobDone keeps the link and the job is not retried", evictions, jobs.Load())
			}
		})
	}
}
