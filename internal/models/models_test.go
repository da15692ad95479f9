package models

import (
	"testing"

	"repro/internal/ag"
	"repro/internal/fw"
	"repro/internal/fw/dglb"
	"repro/internal/fw/pygeo"
	"repro/internal/graph"
	"repro/internal/tensor"
)

// tinyBatch builds a small deterministic batch of graphs on the backend.
func tinyBatch(be fw.Backend, seed uint64, count, feat int) *fw.Batch {
	rng := tensor.NewRNG(seed)
	gs := make([]*graph.Graph, count)
	for i := range gs {
		n := 3 + rng.IntN(4)
		g := graph.ErdosRenyi(rng, n, 0.6).WithSelfLoops()
		g.X = rng.Randn(1, n, feat)
		g.Label = i % 2
		g.Y = make([]int, n)
		for v := range g.Y {
			v2 := rng.IntN(3)
			g.Y[v] = v2
		}
		gs[i] = g
	}
	return be.Batch(gs, nil)
}

func nodeCfg() Config {
	return Config{Task: NodeClassification, In: 4, Hidden: 6, Classes: 3, Layers: 2,
		Heads: 2, Kernels: 2, LearnEps: true, Seed: 42}
}

func graphCfg() Config {
	return Config{Task: GraphClassification, In: 4, Hidden: 6, Out: 6, Classes: 2, Layers: 3,
		Heads: 2, Kernels: 2, LearnEps: true, Seed: 42}
}

func TestForwardShapesAllModels(t *testing.T) {
	for _, be := range []fw.Backend{pygeo.New(), dglb.New()} {
		for _, name := range AllNames() {
			// Node task: logits per node.
			cfg := nodeCfg()
			m := New(name, be, cfg)
			b := tinyBatch(be, 1, 3, cfg.In)
			g := ag.New(nil)
			out := m.Forward(g, b, true, nil)
			if out.Value().Rows() != b.NumNodes || out.Value().Cols() != cfg.Classes {
				t.Fatalf("%s/%s node logits %v, want [%d,%d]", name, be.Name(), out.Value().Shape(), b.NumNodes, cfg.Classes)
			}
			// Graph task: logits per graph.
			gcfg := graphCfg()
			mg := New(name, be, gcfg)
			bg := tinyBatch(be, 2, 4, gcfg.In)
			gg := ag.New(nil)
			outg := mg.Forward(gg, bg, true, nil)
			if outg.Value().Rows() != bg.NumGraphs || outg.Value().Cols() != gcfg.Classes {
				t.Fatalf("%s/%s graph logits %v, want [%d,%d]", name, be.Name(), outg.Value().Shape(), bg.NumGraphs, gcfg.Classes)
			}
		}
	}
}

func TestCrossBackendForwardEquivalence(t *testing.T) {
	// The five models without framework-specific architecture must produce
	// identical logits under both backends (same seed => same parameters).
	// GatedGCN is excluded: DGL's mandatory edge-feature path changes the
	// network, which is the paper's point.
	pyg, dgl := pygeo.New(), dglb.New()
	for _, name := range []string{"GCN", "GAT", "GraphSAGE", "GIN", "MoNet"} {
		cfg := graphCfg()
		mp := New(name, pyg, cfg)
		md := New(name, dgl, cfg)
		bp := tinyBatch(pyg, 3, 4, cfg.In)
		bd := tinyBatch(dgl, 3, 4, cfg.In)
		gp, gd := ag.New(nil), ag.New(nil)
		op := mp.Forward(gp, bp, false, nil)
		od := md.Forward(gd, bd, false, nil)
		if !tensor.AllClose(op.Value(), od.Value(), 1e-9, 1e-9) {
			t.Fatalf("%s: PyG and DGL disagree (max diff %v)", name, tensor.MaxAbsDiff(op.Value(), od.Value()))
		}
	}
}

func TestGradCheckAllModels(t *testing.T) {
	// End-to-end gradient verification of every architecture on both
	// backends, with dropout disabled (stochastic) and tiny dims.
	for _, be := range []fw.Backend{pygeo.New(), dglb.New()} {
		for _, name := range AllNames() {
			cfg := Config{Task: GraphClassification, In: 3, Hidden: 4, Out: 4, Classes: 2,
				Layers: 2, Heads: 2, Kernels: 2, LearnEps: true, Seed: 7}
			m := New(name, be, cfg)
			b := tinyBatch(be, 5, 3, cfg.In)
			err := ag.GradCheck(m.Params(), func(g *ag.Graph) *ag.Node {
				return g.CrossEntropy(m.Forward(g, b, true, nil), b.Labels, nil)
			}, 1e-6, 2e-4, 1e-6)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, be.Name(), err)
			}
		}
	}
}

func TestGatedGCNEdgeStateDiffersByBackend(t *testing.T) {
	cfg := graphCfg()
	mp := NewGatedGCN(pygeo.New(), cfg)
	md := NewGatedGCN(dglb.New(), cfg)
	np := len(mp.Params())
	nd := len(md.Params())
	if nd <= np {
		t.Fatalf("DGL GatedGCN must carry extra edge-update parameters: PyG %d, DGL %d", np, nd)
	}
}

func TestLayerTimesRecorded(t *testing.T) {
	be := pygeo.New()
	cfg := graphCfg()
	m := New("GCN", be, cfg)
	b := tinyBatch(be, 7, 3, cfg.In)
	lt := newLayerTimesForTest()
	g := ag.New(nil)
	m.Forward(g, b, true, lt)
	names := lt.Names()
	want := map[string]bool{"conv1": true, "conv2": true, "conv3": true, "pooling": true, "classifier": true}
	for _, n := range names {
		delete(want, n)
	}
	if len(want) != 0 {
		t.Fatalf("missing layer timers: %v (got %v)", want, names)
	}
}

func TestModelRegistry(t *testing.T) {
	be := pygeo.New()
	for _, name := range AllNames() {
		m := New(name, be, graphCfg())
		if m.Name() != name {
			t.Fatalf("New(%q).Name() = %q", name, m.Name())
		}
		if m.Backend() != be {
			t.Fatal("Backend() must return the construction backend")
		}
		if len(m.Params()) == 0 {
			t.Fatalf("%s has no parameters", name)
		}
	}
	if New("SAGE", be, graphCfg()).Name() != "GraphSAGE" {
		t.Fatal("SAGE alias broken")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown model must panic")
		}
	}()
	New("bogus", be, graphCfg())
}

func TestIsAnisotropic(t *testing.T) {
	for _, n := range []string{"GAT", "MoNet", "GatedGCN"} {
		if !IsAnisotropic(n) {
			t.Fatalf("%s must be anisotropic", n)
		}
	}
	for _, n := range []string{"GCN", "GIN", "GraphSAGE"} {
		if IsAnisotropic(n) {
			t.Fatalf("%s must be isotropic", n)
		}
	}
}

func TestLabelsSelector(t *testing.T) {
	b := &fw.Batch{NodeLabels: []int{1, 2}, Labels: []int{3}}
	if got := Labels(NodeClassification, b); len(got) != 2 {
		t.Fatal("node labels wrong")
	}
	if got := Labels(GraphClassification, b); len(got) != 1 || got[0] != 3 {
		t.Fatal("graph labels wrong")
	}
}

func TestDeterministicConstruction(t *testing.T) {
	be := pygeo.New()
	a := New("GAT", be, graphCfg())
	b := New("GAT", be, graphCfg())
	pa, pb := a.Params(), b.Params()
	if len(pa) != len(pb) {
		t.Fatal("same config must give same parameter count")
	}
	for i := range pa {
		if !tensor.AllClose(pa[i].Value, pb[i].Value, 0, 0) {
			t.Fatalf("parameter %s differs across identical constructions", pa[i].Name)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero layers must panic")
		}
	}()
	New("GCN", pygeo.New(), Config{Task: NodeClassification, In: 3, Hidden: 4, Classes: 2, Layers: 0})
}

// Labels returns the target labels a model's logits should be scored
// against for the batch.
func Labels(task Task, b *fw.Batch) []int {
	if task == NodeClassification {
		return b.NodeLabels
	}
	return b.Labels
}
