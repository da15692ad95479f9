package train

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/datasets"
	"repro/internal/fw/pygeo"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// epochAllocBound is what a warm one-epoch TrainGraphFold call (training
// steps, the validation pass and the test evaluation) may allocate on tiny
// ENZYMES at batch 16. What is left is tape nodes, closures, collated batches
// and the eval logits copies, 0.5 MB; the heap-backed training tape and eval
// passes allocated 8.6 MB.
const epochAllocBound = 2 << 20

// TestTrainGraphFoldSteadyState holds a training process to the pool: after
// a warm-up epoch, a second one draws its tapes' buffers from the free lists
// (batches are reshuffled, so a few new size classes may still miss) and
// allocates under a bound the heap-backed training tape exceeded.
func TestTrainGraphFoldSteadyState(t *testing.T) {
	if tensor.RaceEnabled {
		t.Skip("race instrumentation allocates")
	}
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	// Only the test's own traffic moves the pool: the other tests' garbage
	// must not collect twice between the two epochs.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	d := tinyEnzymes()
	splits := datasets.CrossValidationSplits(datasets.StratifiedKFold(tensor.NewRNG(3), d.GraphLabels(), 4))
	m := graphModel("GCN", pygeo.New(), d, 5)
	opt := GraphOptions{BatchSize: 16, InitLR: 5e-3, MaxEpochs: 1, Seed: 9}
	TrainGraphFold(m, d, splits[0], opt)

	var before, after runtime.MemStats
	p0 := tensor.Pool()
	runtime.ReadMemStats(&before)
	TrainGraphFold(m, d, splits[0], opt)
	runtime.ReadMemStats(&after)
	p1 := tensor.Pool()
	hits, misses := p1.Hits-p0.Hits, p1.Misses-p0.Misses
	ratio := float64(hits) / float64(hits+misses)
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("second epoch: %d pool hits, %d misses (ratio %.4f), %d evictions, %d bytes allocated",
		hits, misses, ratio, p1.Evictions-p0.Evictions, alloc)
	if ratio < 0.95 {
		t.Errorf("pool hit ratio %.4f over a warm epoch, want >= 0.95", ratio)
	}
	if alloc > epochAllocBound {
		t.Errorf("warm epoch allocated %d bytes, bound %d", alloc, epochAllocBound)
	}
}
