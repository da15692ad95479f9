package datasets

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / want
}

func TestCoraMatchesTableI(t *testing.T) {
	d := Cora(Options{Seed: 1})
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	s := Stats(d)
	want := PaperTableI()["Cora"]
	if s.Graphs != 1 || s.Features != 1433 || s.Classes != 7 {
		t.Fatalf("Cora metadata: %+v", s)
	}
	if s.AvgNodes != 2708 {
		t.Fatalf("Cora nodes = %v", s.AvgNodes)
	}
	if relErr(s.AvgEdges, want.AvgEdges) > 0.15 {
		t.Fatalf("Cora edges = %v, paper %v", s.AvgEdges, want.AvgEdges)
	}
	if len(d.TrainIdx) != 140 || len(d.ValIdx) != 500 || len(d.TestIdx) != 1000 {
		t.Fatalf("Cora split %d/%d/%d", len(d.TrainIdx), len(d.ValIdx), len(d.TestIdx))
	}
	// Training split is stratified: 20 per class.
	counts := ClassCounts(d.Graphs[0].Y, d.TrainIdx, 7)
	for c, n := range counts {
		if n != 20 {
			t.Fatalf("class %d has %d training nodes, want 20", c, n)
		}
	}
	// Split disjointness.
	seen := map[int]bool{}
	for _, idx := range [][]int{d.TrainIdx, d.ValIdx, d.TestIdx} {
		for _, v := range idx {
			if seen[v] {
				t.Fatal("splits overlap")
			}
			seen[v] = true
		}
	}
}

func TestPubMedScaledShape(t *testing.T) {
	d := PubMed(Options{Seed: 2, Scale: 0.05})
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	s := Stats(d)
	if s.Features != 500 || s.Classes != 3 {
		t.Fatalf("PubMed metadata: %+v", s)
	}
	if s.AvgNodes < 900 || s.AvgNodes > 1000 {
		t.Fatalf("PubMed scaled nodes = %v, want ~985", s.AvgNodes)
	}
	// Weighted features: positive, non-binary values present.
	x := d.Graphs[0].X
	hasFraction := false
	for _, v := range x.Data {
		if v < 0 {
			t.Fatal("PubMed features must be nonnegative")
		}
		if v > 0 && v != 1 {
			hasFraction = true
		}
	}
	if !hasFraction {
		t.Fatal("PubMed features should be TF-IDF-like, not binary")
	}
}

func TestCitationHomophilyAndLearnability(t *testing.T) {
	d := Cora(Options{Seed: 3, Scale: 0.2})
	g := d.Graphs[0]
	within, cross := 0, 0
	for i := range g.Src {
		if g.Src[i] == g.Dst[i] {
			continue // self-loop
		}
		if g.Y[g.Src[i]] == g.Y[g.Dst[i]] {
			within++
		} else {
			cross++
		}
	}
	// Label noise (see buildCitation) lowers measured homophily from the
	// structural level; the graph must still be clearly assortative.
	if float64(within) <= 1.5*float64(cross) {
		t.Fatalf("citation graph should be homophilous: within=%d cross=%d", within, cross)
	}
	// Features must separate classes: mean within-class feature overlap
	// exceeds cross-class overlap.
	perClass := make([]*tensor.Tensor, d.NumClasses)
	counts := make([]float64, d.NumClasses)
	for v := 0; v < g.NumNodes; v++ {
		c := g.Y[v]
		if perClass[c] == nil {
			perClass[c] = tensor.New(d.NumFeatures)
		}
		for j, val := range g.X.Row(v) {
			perClass[c].Data[j] += val
		}
		counts[c]++
	}
	for c := range perClass {
		tensor.ScaleInPlace(perClass[c], 1/counts[c])
	}
	same := tensor.Dot(perClass[0], perClass[0])
	diff := tensor.Dot(perClass[0], perClass[1])
	if same <= 2*diff {
		t.Fatalf("class features should be separable: same=%v cross=%v", same, diff)
	}
}

func TestEnzymesMatchesTableI(t *testing.T) {
	d := Enzymes(Options{Seed: 4})
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	s := Stats(d)
	want := PaperTableI()["ENZYMES"]
	if s.Graphs != 600 || s.Features != 18 || s.Classes != 6 {
		t.Fatalf("ENZYMES metadata: %+v", s)
	}
	if relErr(s.AvgNodes, want.AvgNodes) > 0.2 {
		t.Fatalf("ENZYMES avg nodes = %v, paper %v", s.AvgNodes, want.AvgNodes)
	}
	if relErr(s.AvgEdges, want.AvgEdges) > 0.25 {
		t.Fatalf("ENZYMES avg edges = %v, paper %v", s.AvgEdges, want.AvgEdges)
	}
	// Balanced classes and size bounds.
	counts := ClassCounts(d.GraphLabels(), nil, 6)
	for c, n := range counts {
		if n != 100 {
			t.Fatalf("ENZYMES class %d count %d", c, n)
		}
	}
	for _, g := range d.Graphs {
		if g.NumNodes < 2 || g.NumNodes > 126 {
			t.Fatalf("ENZYMES graph size %d outside [2,126]", g.NumNodes)
		}
	}
}

func TestDDScaledMatchesShape(t *testing.T) {
	d := DD(Options{Seed: 5, Scale: 0.1})
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	s := Stats(d)
	if s.Features != 89 || s.Classes != 2 {
		t.Fatalf("DD metadata: %+v", s)
	}
	// One-hot features: every row sums to exactly 1.
	g := d.Graphs[0]
	for v := 0; v < g.NumNodes; v++ {
		var sum float64
		for _, x := range g.X.Row(v) {
			sum += x
		}
		if sum != 1 {
			t.Fatalf("DD features must be one-hot, row sums to %v", sum)
		}
	}
	for _, gr := range d.Graphs {
		if gr.NumNodes < 30 {
			t.Fatalf("DD graph size %d below 30", gr.NumNodes)
		}
	}
}

func TestDDFullSizeDistribution(t *testing.T) {
	if testing.Short() {
		t.Skip("full DD generation")
	}
	d := DD(Options{Seed: 6})
	s := Stats(d)
	want := PaperTableI()["DD"]
	if s.Graphs != 1178 {
		t.Fatalf("DD count %d", s.Graphs)
	}
	if relErr(s.AvgNodes, want.AvgNodes) > 0.3 {
		t.Fatalf("DD avg nodes = %v, paper %v", s.AvgNodes, want.AvgNodes)
	}
	if relErr(s.AvgEdges, want.AvgEdges) > 0.35 {
		t.Fatalf("DD avg edges = %v, paper %v", s.AvgEdges, want.AvgEdges)
	}
}

func TestMNISTSuperpixels(t *testing.T) {
	d := MNISTSuperpixels(Options{Seed: 7, Scale: 0.002}) // 140 graphs
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	s := Stats(d)
	want := PaperTableI()["MNIST"]
	if s.Features != 1 || s.Classes != 10 {
		t.Fatalf("MNIST metadata: %+v", s)
	}
	if relErr(s.AvgNodes, want.AvgNodes) > 0.15 {
		t.Fatalf("MNIST avg nodes = %v, paper %v", s.AvgNodes, want.AvgNodes)
	}
	if relErr(s.AvgEdges, want.AvgEdges) > 0.35 {
		t.Fatalf("MNIST avg edges = %v, paper %v", s.AvgEdges, want.AvgEdges)
	}
	// All ten digits present; positions recorded; intensity in [0,1].
	counts := ClassCounts(d.GraphLabels(), nil, 10)
	for c, n := range counts {
		if n == 0 {
			t.Fatalf("digit %d missing", c)
		}
	}
	for _, g := range d.Graphs[:10] {
		if g.Pos == nil {
			t.Fatal("superpixel graphs must carry positions")
		}
		for _, v := range g.X.Data {
			if v < 0 || v > 1 {
				t.Fatalf("intensity %v outside [0,1]", v)
			}
		}
	}
	// Digits must be visually distinct: intensity profiles of a 0 and a 1
	// differ (different stroke coverage).
	mean := func(idx int) float64 {
		var s float64
		g := d.Graphs[idx]
		for _, v := range g.X.Data {
			s += v
		}
		return s / float64(g.NumNodes)
	}
	if math.Abs(mean(0)-mean(1)) < 0.01 {
		t.Fatal("digit renderings should differ in stroke coverage")
	}
}

func TestDeterminism(t *testing.T) {
	a := Enzymes(Options{Seed: 9, Scale: 0.05})
	b := Enzymes(Options{Seed: 9, Scale: 0.05})
	if len(a.Graphs) != len(b.Graphs) {
		t.Fatal("sizes differ")
	}
	for i := range a.Graphs {
		if !tensor.AllClose(a.Graphs[i].X, b.Graphs[i].X, 0, 0) {
			t.Fatal("same seed must reproduce identical features")
		}
		if a.Graphs[i].NumEdges() != b.Graphs[i].NumEdges() {
			t.Fatal("same seed must reproduce identical topology")
		}
	}
	c := Enzymes(Options{Seed: 10, Scale: 0.05})
	if a.Graphs[0].NumEdges() == c.Graphs[0].NumEdges() && tensor.AllClose(a.Graphs[0].X, c.Graphs[0].X, 0, 0) {
		t.Fatal("different seeds should differ")
	}
}

func TestStratifiedKFold(t *testing.T) {
	rng := tensor.NewRNG(11)
	labels := make([]int, 100)
	for i := range labels {
		labels[i] = i % 4
	}
	folds := StratifiedKFold(rng, labels, 10)
	if len(folds) != 10 {
		t.Fatalf("fold count %d", len(folds))
	}
	seen := map[int]bool{}
	for _, fold := range folds {
		if len(fold) != 10 {
			t.Fatalf("fold size %d, want 10", len(fold))
		}
		counts := ClassCounts(labels, fold, 4)
		for c, n := range counts {
			if n != 10/4 && n != 10/4+1 {
				t.Fatalf("fold class %d count %d not stratified", c, n)
			}
		}
		for _, v := range fold {
			if seen[v] {
				t.Fatal("folds overlap")
			}
			seen[v] = true
		}
	}
	if len(seen) != 100 {
		t.Fatal("folds must cover all samples")
	}
}

func TestCrossValidationSplits(t *testing.T) {
	folds := [][]int{{0, 1}, {2, 3}, {4, 5}, {6, 7}}
	splits := CrossValidationSplits(folds)
	if len(splits) != 4 {
		t.Fatal("split count wrong")
	}
	s := splits[0]
	if len(s.Test) != 2 || s.Test[0] != 0 {
		t.Fatalf("round 0 test = %v", s.Test)
	}
	if len(s.Val) != 2 || s.Val[0] != 2 {
		t.Fatalf("round 0 val = %v", s.Val)
	}
	if len(s.Train) != 4 {
		t.Fatalf("round 0 train = %v", s.Train)
	}
	// Train/val/test of each round partition all samples.
	for _, sp := range splits {
		if len(sp.Train)+len(sp.Val)+len(sp.Test) != 8 {
			t.Fatal("round does not cover all samples")
		}
	}
}

func TestOptionsValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("scale > 1 must panic")
		}
	}()
	Cora(Options{Scale: 1.5})
}

func TestFormatTable(t *testing.T) {
	out := FormatTable([]TableStats{Stats(Enzymes(Options{Seed: 1, Scale: 0.05}))})
	if len(out) == 0 || out[:7] != "Dataset" {
		t.Fatalf("bad table: %q", out)
	}
}

// ClassCounts tallies label occurrences over the given indices (or all
// samples when idx is nil).
func ClassCounts(labels []int, idx []int, classes int) []int {
	counts := make([]int, classes)
	if idx == nil {
		for _, c := range labels {
			counts[c]++
		}
		return counts
	}
	for _, i := range idx {
		counts[labels[i]]++
	}
	return counts
}
