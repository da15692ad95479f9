package costmodel

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/fw/pygeo"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/tensor"
)

// testModel is the small reference model sweeps in this file measure.
func testModel() models.Model {
	return models.New("GCN", pygeo.New(), models.Config{
		Task: models.GraphClassification, In: 6, Hidden: 16, Out: 16,
		Classes: 4, Layers: 4, Seed: 1,
	})
}

// pathGraph builds a directed path 0->1->...->n-1 with constant features.
func pathGraph(n, width int) *graph.Graph {
	g := &graph.Graph{NumNodes: n}
	for i := 0; i+1 < n; i++ {
		g.Src = append(g.Src, i)
		g.Dst = append(g.Dst, i+1)
	}
	g.X = tensor.New(n, width)
	return g
}

func TestExtractFeatures(t *testing.T) {
	// 4-node graph: arcs 0->1, 0->2, 1->2, 3->2. In-degrees: [0,1,3,0].
	g := &graph.Graph{NumNodes: 4, Src: []int{0, 0, 1, 3}, Dst: []int{1, 2, 2, 2}}
	f := Extract(g)
	if f.Nodes != 4 || f.Edges != 4 {
		t.Fatalf("nodes/edges = %v/%v, want 4/4", f.Nodes, f.Edges)
	}
	if want := 4.0 / 12.0; math.Abs(f.Density-want) > 1e-15 {
		t.Fatalf("density = %v, want %v", f.Density, want)
	}
	if f.DegMean != 1 {
		t.Fatalf("deg mean = %v, want 1", f.DegMean)
	}
	// E[d²] - mean² = (0+1+9+0)/4 - 1 = 1.5
	if math.Abs(f.DegVar-1.5) > 1e-15 {
		t.Fatalf("deg var = %v, want 1.5", f.DegVar)
	}
	if f.DegMax != 3 {
		t.Fatalf("deg max = %v, want 3", f.DegMax)
	}
	if v := f.Vector(); len(v) != NumFeatures {
		t.Fatalf("vector has %d entries, want %d", len(v), NumFeatures)
	}
}

// TestExtractBatchMatchesUnion pins the incremental batch accumulator to the
// definition: extracting the disconnected union graph directly must give the
// same features (density included — the union's node count is the sum).
func TestExtractBatchMatchesUnion(t *testing.T) {
	rng := tensor.NewRNG(3)
	gs := []*graph.Graph{
		graph.ErdosRenyi(rng, 20, 0.2),
		graph.PreferentialAttachment(rng, 15, 2),
		pathGraph(7, 1),
	}
	union := &graph.Graph{}
	for _, g := range gs {
		off := union.NumNodes
		union.NumNodes += g.NumNodes
		for i := range g.Src {
			union.Src = append(union.Src, g.Src[i]+off)
			union.Dst = append(union.Dst, g.Dst[i]+off)
		}
	}
	got, want := ExtractBatch(gs), Extract(union)
	if got != want {
		t.Fatalf("batch features %+v != union features %+v", got, want)
	}
}

// TestFitDeterministic is the same-seed-identical-coefficients invariant CI
// enforces on the gnnpredict binary, proven at the package level: two
// independent sweep+fit pipelines must agree bit for bit, JSON included.
func TestFitDeterministic(t *testing.T) {
	run := func() (*Predictor, []byte) {
		samples := Sweep(testModel(), 6, SweepOptions{Samples: 48, Seed: 7})
		train, _ := Split(samples, 4)
		p, err := Fit(train, FitOptions{})
		if err != nil {
			t.Fatalf("Fit: %v", err)
		}
		var buf bytes.Buffer
		if err := p.WriteJSON(&buf); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		return p, buf.Bytes()
	}
	p1, j1 := run()
	p2, j2 := run()
	for i := range p1.Coef {
		if p1.Coef[i] != p2.Coef[i] {
			t.Fatalf("coefficient %d differs between identical fits: %v vs %v", i, p1.Coef[i], p2.Coef[i])
		}
	}
	if p1.Bias != p2.Bias {
		t.Fatalf("bias differs: %v vs %v", p1.Bias, p2.Bias)
	}
	if !bytes.Equal(j1, j2) {
		t.Fatal("JSON encodings of identical fits differ")
	}
}

// TestHoldoutR2 is the paper-reproduction acceptance gate: latency predicted
// from graph metrics alone must explain >= 80% of held-out variance.
func TestHoldoutR2(t *testing.T) {
	m := testModel()
	samples := Sweep(m, 6, SweepOptions{Samples: 96, Seed: 11})
	train, held := Split(samples, 4)
	p, err := Fit(train, FitOptions{})
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if r2 := RSquared(p, held); r2 < 0.8 {
		t.Fatalf("held-out R² = %v, want >= 0.8", r2)
	}
	if r2 := RSquared(p, train); r2 < 0.8 {
		t.Fatalf("train R² = %v, want >= 0.8", r2)
	}
	// The fitted predictor must be usable as a batch predictor: a strictly
	// larger union predicts strictly more work.
	small := []*graph.Graph{pathGraph(10, 6)}
	big := []*graph.Graph{pathGraph(200, 6), pathGraph(200, 6), pathGraph(200, 6)}
	if ps, pb := p.PredictBatch(small), p.PredictBatch(big); pb <= ps {
		t.Fatalf("predicted %v for a 600-node batch vs %v for a 10-node one", pb, ps)
	}
}

func TestPredictorJSONRoundTrip(t *testing.T) {
	samples := Sweep(testModel(), 6, SweepOptions{Samples: 48, Seed: 5})
	p, err := Fit(samples, FitOptions{Steps: 500})
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	p.Model, p.Framework = "GCN", "PyG"
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatalf("ReadJSON: %v", err)
	}
	if got.Model != "GCN" || got.Framework != "PyG" {
		t.Fatalf("identity lost: %q/%q", got.Model, got.Framework)
	}
	f := Extract(pathGraph(40, 6))
	if a, b := p.PredictFeatures(f), got.PredictFeatures(f); a != b {
		t.Fatalf("round-tripped predictor predicts %v, original %v", b, a)
	}
}

func TestReadJSONRejectsMalformed(t *testing.T) {
	for name, body := range map[string]string{
		"truncated":    `{"model":"GCN"`,
		"wrong-width":  `{"model":"GCN","framework":"PyG","feat_mean":[1],"feat_std":[1],"coef":[1],"bias":0,"target_mean":0,"target_std":1}`,
		"zero-std":     `{"model":"GCN","framework":"PyG","feat_mean":[0,0,0,0,0,0],"feat_std":[1,1,0,1,1,1],"coef":[0,0,0,0,0,0],"bias":0,"target_mean":0,"target_std":1}`,
		"nan-target":   `{"model":"GCN","framework":"PyG","feat_mean":[0,0,0,0,0,0],"feat_std":[1,1,1,1,1,1],"coef":[0,0,0,0,0,0],"bias":0,"target_mean":0,"target_std":0}`,
		"unknown-keys": `{"model":"GCN","surprise":1}`,
	} {
		if _, err := ReadJSON(strings.NewReader(body)); err == nil {
			t.Fatalf("ReadJSON accepted %s predictor", name)
		}
	}
}

func TestFitRejectsTooFewSamples(t *testing.T) {
	if _, err := Fit(make([]Sample, NumFeatures), FitOptions{}); err == nil {
		t.Fatal("Fit accepted fewer samples than features")
	}
}

func TestPredictClampsAtZero(t *testing.T) {
	p := &Predictor{
		FeatMean:   make([]float64, NumFeatures),
		FeatStd:    []float64{1, 1, 1, 1, 1, 1},
		Coef:       []float64{-1, 0, 0, 0, 0, 0},
		TargetMean: 0, TargetStd: 1,
	}
	if got := p.PredictFeatures(Features{Nodes: 100}); got != 0 {
		t.Fatalf("negative extrapolation predicted %v, want clamp to 0", got)
	}
}

// TestSweepDeterministic: same options, bit-identical measurements — the
// property that makes the CI determinism gate meaningful.
func TestSweepDeterministic(t *testing.T) {
	a := Sweep(testModel(), 6, SweepOptions{Samples: 24, Seed: 9})
	b := Sweep(testModel(), 6, SweepOptions{Samples: 24, Seed: 9})
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d differs between identical sweeps: %+v vs %+v", i, a[i], b[i])
		}
	}
	if len(a) != 24 {
		t.Fatalf("sweep returned %d samples, want 24", len(a))
	}
	var _ time.Duration // keep the import honest if assertions change
}

// Extract computes the cost-model features of one graph.
func Extract(g *graph.Graph) Features {
	var a accum
	a.add(g)
	return a.features()
}
