package obs_test

import (
	"sort"
	"testing"
	"time"

	"repro/internal/datasets"
	"repro/internal/device"
	"repro/internal/fw/pygeo"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/train"
)

// overheadRun is one tiny full-batch training, optionally instrumented with
// a fresh registry and tracer, returning its wall time.
func overheadRun(d *datasets.Dataset, instrumented bool) time.Duration {
	m := models.New("GCN", pygeo.New(), models.Config{
		Task: models.NodeClassification, In: d.NumFeatures, Hidden: 16,
		Classes: d.NumClasses, Layers: 2, Seed: 1,
	})
	opt := train.NodeOptions{Epochs: 20, LR: 0.01, Device: device.Default()}
	if instrumented {
		opt.Metrics = obs.NewRegistry()
		opt.Tracer = obs.NewTracer(0)
	}
	t0 := time.Now()
	train.TrainNode(m, d, opt)
	return time.Since(t0)
}

func median(ds []time.Duration) time.Duration {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2]
}

// TestInstrumentationOverhead is the obs-overhead smoke benchmark: metrics +
// span instrumentation must add less than 5% to a tiny training run. Timing
// on a loaded CI host is noisy, so it compares medians of interleaved runs
// and retries before declaring a regression; it is skipped in -short mode
// (CI runs it as a dedicated step without -race).
func TestInstrumentationOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing assertion; run without -short")
	}
	d := datasets.Cora(datasets.Options{Seed: 1, Scale: 0.08})
	overheadRun(d, true) // warm up caches and allocator

	const attempts = 3
	var ratio float64
	for a := 0; a < attempts; a++ {
		var bare, inst []time.Duration
		for i := 0; i < 5; i++ {
			bare = append(bare, overheadRun(d, false))
			inst = append(inst, overheadRun(d, true))
		}
		ratio = float64(median(inst)) / float64(median(bare))
		t.Logf("attempt %d: bare %v, instrumented %v, ratio %.4f", a, median(bare), median(inst), ratio)
		if ratio < 1.05 {
			return
		}
	}
	t.Errorf("instrumentation overhead %.1f%% exceeds 5%% after %d attempts", (ratio-1)*100, attempts)
}

// The overhead pair: the identical tiny training run with the observability
// spine off and on, measured in the same process so the ratio is
// load-comparable.
func BenchmarkTrainingRunBare(b *testing.B)         { benchOverheadRun(b, false) }
func BenchmarkTrainingRunInstrumented(b *testing.B) { benchOverheadRun(b, true) }

func benchOverheadRun(b *testing.B, instrumented bool) {
	d := datasets.Cora(datasets.Options{Seed: 1, Scale: 0.08})
	overheadRun(d, instrumented) // warm caches outside the timer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		overheadRun(d, instrumented)
	}
}

// Primitive costs of the PR 8 observability surface, for the same file.
func BenchmarkSpanStartEnd(b *testing.B) {
	tr := obs.NewTracer(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Start("bench", obs.String("k", "v")).End()
	}
}

func BenchmarkEventLogAppend(b *testing.B) {
	l := obs.NewEventLog(1024, nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Info("bench", obs.String("k", "v"))
	}
}

func BenchmarkSLOObserve(b *testing.B) {
	s := obs.NewSLOTracker(obs.SLOOptions{Target: time.Millisecond})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Observe(time.Duration(i%2000) * time.Microsecond)
	}
}
