package serve

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/fw"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// ErrReplicaPanic wraps a panic recovered from a replica's forward pass or
// from collation through its backend: one poisonous batch fails with this
// error instead of taking the process down.
var ErrReplicaPanic = errors.New("serve: replica failure")

// Pool is a set of replicas behind the Runner interface, and the one place
// in the serving stack where a batch is collated and run: the single-process
// Server dispatches to it, and a fleet worker is an RPC shell around it.
// RunBatch is safe for any number of concurrent callers; each call holds one
// replica for its duration.
type Pool struct {
	be       fw.Backend
	replicas []Replica
	free     chan Replica

	// collate and forward accumulate seconds spent in the backend and in the
	// replica. The owning Server points them at its phase counters; they stay
	// nil (a no-op) for a pool nobody accounts phases for.
	collate, forward *obs.Counter
}

// NewPool builds a pool over replicas, whose backends must agree by name
// (every batch is collated through the first replica's). It panics on an
// empty set or a disagreement, mirroring the constructor conventions of this
// codebase.
func NewPool(replicas []Replica) *Pool {
	if len(replicas) == 0 {
		panic("serve: need at least one replica")
	}
	p := &Pool{
		be:       replicas[0].Backend(),
		replicas: replicas,
		free:     make(chan Replica, len(replicas)),
	}
	for _, r := range replicas {
		if r.Backend().Name() != p.be.Name() {
			panic(fmt.Sprintf("serve: replica backends disagree: %s vs %s", p.be.Name(), r.Backend().Name()))
		}
		p.free <- r
	}
	return p
}

// Backend returns the framework backend batches are collated through.
func (p *Pool) Backend() fw.Backend { return p.be }

// RunBatch implements Runner: claim a replica (giving up when ctx ends
// first), collate graphs through the shared backend, run one forward pass
// and return one Prediction per graph. Spans nest under the span ctx carries
// (obs.ContextWithSpan). A panicking replica or backend is reported as an
// ErrReplicaPanic-wrapped error.
func (p *Pool) RunBatch(ctx context.Context, graphs []*graph.Graph) (preds []Prediction, err error) {
	var rep Replica
	select {
	case rep = <-p.free:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { p.free <- rep }()
	defer func() {
		if r := recover(); r != nil {
			preds, err = nil, fmt.Errorf("%w: %v", ErrReplicaPanic, r)
		}
	}()
	span := obs.SpanFromContext(ctx)
	dev := rep.Device()

	sp := span.Child("collate")
	start := time.Now()
	b := p.be.Batch(graphs, dev)
	p.collate.Add(time.Since(start).Seconds())
	sp.End()
	// Deferred here, not after the row check: a panic in Forward must still
	// give the batch's device allocation back.
	defer b.Release(dev)

	sp = span.Child("forward")
	start = time.Now()
	logits := rep.Forward(b)
	p.forward.Add(time.Since(start).Seconds())
	sp.End()

	if logits == nil || logits.Rows() != b.NumGraphs {
		rows := -1
		if logits != nil {
			rows = logits.Rows()
		}
		return nil, fmt.Errorf("serve: replica produced %d logit rows for %d graphs (serving requires a graph-classification model)", rows, b.NumGraphs)
	}
	// A compiled replica's output tensor is owned by its tape and overwritten
	// by the next replay, so every row is copied out before the replica goes
	// back to the pool.
	classes := tensor.ArgMaxRows(logits)
	preds = make([]Prediction, b.NumGraphs)
	for i := range preds {
		preds[i] = Prediction{Class: classes[i], Logits: append([]float64(nil), logits.Row(i)...)}
	}
	return preds, nil
}

// Swap replaces the model behind every replica with m. It is all-or-nothing:
// it fails without touching any replica when m's backend disagrees with the
// pool's collation backend or when any replica is not Swappable.
func (p *Pool) Swap(m models.Model) error {
	if m == nil {
		return errors.New("serve: reload with nil model")
	}
	if m.Backend().Name() != p.be.Name() {
		return fmt.Errorf("serve: reload model uses backend %s, server collates for %s",
			m.Backend().Name(), p.be.Name())
	}
	swappable := make([]Swappable, len(p.replicas))
	for i, r := range p.replicas {
		sw, ok := r.(Swappable)
		if !ok {
			return fmt.Errorf("serve: replica %d (%T) does not support model swapping", i, r)
		}
		swappable[i] = sw
	}
	for _, sw := range swappable {
		sw.Swap(m)
	}
	return nil
}
