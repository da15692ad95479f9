package obs_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/datasets"
	"repro/internal/device"
	"repro/internal/fw/pygeo"
	"repro/internal/loader"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/train"
)

// TestProjectMetricsLint is the CI metrics-lint gate: it assembles the full
// metric surface the repo can register — runtime/pool/device collectors,
// training, loader and serving instruments — and checks every family renders
// with HELP and TYPE lines, a lawful name, and no duplicate registration.
func TestProjectMetricsLint(t *testing.T) {
	reg := obs.NewRegistry()
	obs.RegisterRuntimeMetrics(reg)
	obs.RegisterPoolMetrics(reg)
	obs.RegisterTensorPoolMetrics(reg)
	dev := device.New("cuda:0", device.RTX2080Ti())
	obs.RegisterDeviceMetrics(reg, dev)
	// The flight recorder's dump counters live on the process registry, as
	// cmd/gnnserve and cmd/gnnworker wire them.
	obs.NewFlightRecorder(nil, nil, reg, obs.FlightOptions{})

	d := datasets.Cora(datasets.Options{Seed: 1, Scale: 0.08})
	m := models.New("GCN", pygeo.New(), models.Config{
		Task: models.NodeClassification, In: d.NumFeatures, Hidden: 8,
		Classes: d.NumClasses, Layers: 2, Seed: 1,
	})
	// Checkpointing enabled so the ckpt_* instruments join the surface.
	train.TrainNode(m, d, train.NodeOptions{Epochs: 2, LR: 0.01, Metrics: reg,
		Checkpointing: train.Checkpointing{CheckpointDir: t.TempDir()}})

	enz := datasets.Enzymes(datasets.Options{Seed: 1, Scale: 0.05})
	l := loader.New(pygeo.New(), enz, nil, loader.Options{BatchSize: 8, Metrics: reg})
	for b := range l.Epoch() {
		b.Release(nil)
	}

	// A server owns its registry (the gnnserve_* names collide otherwise);
	// lint it separately through its exposition.
	gm := models.New("GCN", pygeo.New(), models.Config{
		Task: models.GraphClassification, In: enz.NumFeatures, Hidden: 8, Out: 8,
		Classes: enz.NumClasses, Layers: 2, Seed: 1,
	})
	sreg := obs.NewRegistry()
	srv := serve.New([]serve.Replica{serve.NewModelReplica(gm, device.Default())},
		serve.Options{Registry: sreg, SLOTarget: time.Second})
	defer srv.Shutdown(context.Background())

	for name, r := range map[string]*obs.Registry{"process": reg, "serve": sreg} {
		if err := r.Lint(); err != nil {
			t.Errorf("%s registry lint: %v", name, err)
		}
		checkExposition(t, name, r)
	}

	// The checkpoint and reload families introduced by the crash-safe
	// training subsystem must be part of the linted surface.
	requireFamilies(t, "process", reg,
		"ckpt_saves_total", "ckpt_saved_bytes_total", "ckpt_save_seconds_total", "ckpt_last_save_age_seconds")
	requireFamilies(t, "serve", sreg, "gnnserve_reloads_total")
	// The tensor pool's traffic, including the evictions of its retention rule.
	requireFamilies(t, "process", reg,
		"gnnlab_tensor_pool_hits_total", "gnnlab_tensor_pool_misses_total", "gnnlab_tensor_pool_releases_total",
		"gnnlab_tensor_pool_discards_total", "gnnlab_tensor_pool_evictions_total", "gnnlab_tensor_pool_free_bytes")
	// The coalescer's queue-wait, close-reason and utilisation families.
	requireFamilies(t, "serve", sreg,
		"gnnserve_queue_wait_seconds", "gnnserve_batch_close_total", "gnnserve_pool_utilization")

	// The PR 8 observability families: flight-recorder dump accounting on
	// the process registry, SLO burn series on the serving registry.
	requireFamilies(t, "process", reg,
		"gnnlab_flight_dumps_total", "gnnlab_flight_dumps_skipped_total")
	requireFamilies(t, "serve", sreg,
		"gnnlab_slo_target_seconds", "gnnlab_slo_requests_total", "gnnlab_slo_over_target_total",
		"gnnlab_slo_breaches_total", "gnnlab_slo_latency_seconds", "gnnlab_slo_burn_ratio")
}

// requireFamilies asserts each named metric family renders in r's exposition.
func requireFamilies(t *testing.T, label string, r *obs.Registry, names ...string) {
	t.Helper()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatalf("%s: WritePrometheus: %v", label, err)
	}
	out := sb.String()
	for _, name := range names {
		if !strings.Contains(out, "# TYPE "+name+" ") {
			t.Errorf("%s: metric family %s missing from exposition", label, name)
		}
	}
}

// checkExposition verifies the rendered text: every family name satisfies
// the shared naming law (obs.CheckMetricName — the same rule table gnnvet's
// static metric-names check applies at registration call sites), appears
// exactly once, and every sample line follows that family's HELP and TYPE
// declarations.
func checkExposition(t *testing.T, label string, r *obs.Registry) {
	t.Helper()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatalf("%s: WritePrometheus: %v", label, err)
	}
	helped := map[string]bool{}
	typed := map[string]bool{}
	var current string
	for _, line := range strings.Split(sb.String(), "\n") {
		if line == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, "# HELP "):
			name := strings.Fields(line)[2]
			if helped[name] {
				t.Errorf("%s: duplicate HELP for %s", label, name)
			}
			helped[name] = true
			current = name
		case strings.HasPrefix(line, "# TYPE "):
			name := strings.Fields(line)[2]
			if err := obs.CheckMetricName(name); err != nil {
				t.Errorf("%s: metric name violates naming law: %v", label, err)
			}
			if typed[name] {
				t.Errorf("%s: duplicate TYPE for %s", label, name)
			}
			typed[name] = true
		default:
			sample := line
			if i := strings.IndexAny(sample, "{ "); i >= 0 {
				sample = sample[:i]
			}
			// Histogram series add _bucket/_sum/_count to the family name.
			base := sample
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if strings.HasSuffix(sample, suffix) && helped[strings.TrimSuffix(sample, suffix)] {
					base = strings.TrimSuffix(sample, suffix)
				}
			}
			if current == "" || !helped[base] || !typed[base] {
				t.Errorf("%s: sample %q not preceded by its HELP/TYPE", label, line)
			}
		}
	}
	for name := range helped {
		if !typed[name] {
			t.Errorf("%s: %s has HELP but no TYPE", label, name)
		}
	}
}
