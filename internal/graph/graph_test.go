package graph

import (
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func triangle() *Graph {
	return &Graph{NumNodes: 3, Src: []int{0, 1, 2}, Dst: []int{1, 2, 0}}
}

func TestValidate(t *testing.T) {
	g := triangle()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := &Graph{NumNodes: 2, Src: []int{0}, Dst: []int{5}}
	if bad.Validate() == nil {
		t.Fatal("out-of-range edge must fail validation")
	}
	bad2 := &Graph{NumNodes: 2, Src: []int{0}, Dst: []int{1}, X: tensor.New(3, 1)}
	if bad2.Validate() == nil {
		t.Fatal("feature-row mismatch must fail validation")
	}
	bad3 := &Graph{NumNodes: 2, Src: []int{0, 1}, Dst: []int{1}}
	if bad3.Validate() == nil {
		t.Fatal("src/dst length mismatch must fail validation")
	}
}

func TestDegrees(t *testing.T) {
	g := triangle()
	in := g.InDegrees()
	for i := 0; i < 3; i++ {
		if in[i] != 1 {
			t.Fatalf("cycle in-degrees wrong: %v", in)
		}
	}
}

func TestWithSelfLoops(t *testing.T) {
	g := triangle()
	g.EdgeAttr = tensor.Ones(3, 2)
	s := g.WithSelfLoops()
	if s.NumEdges() != 6 {
		t.Fatalf("edges = %d, want 6", s.NumEdges())
	}
	for i := 3; i < 6; i++ {
		if s.Src[i] != s.Dst[i] {
			t.Fatal("appended arcs must be self-loops")
		}
	}
	if s.EdgeAttr.Rows() != 6 || s.EdgeAttr.At(4, 0) != 0 {
		t.Fatal("self-loop edge attrs must be zero")
	}
	if g.NumEdges() != 3 {
		t.Fatal("original graph must be untouched")
	}
}

func TestUndirected(t *testing.T) {
	g := &Graph{NumNodes: 3, Src: []int{0, 1}, Dst: []int{1, 2}}
	u := g.Undirected()
	if u.NumEdges() != 4 {
		t.Fatalf("edges = %d, want 4", u.NumEdges())
	}
	if u.Src[2] != 1 || u.Dst[2] != 0 {
		t.Fatal("reverse arcs wrong")
	}
	in := u.InDegrees()
	if in[1] != 2 {
		t.Fatalf("node 1 in-degree %v, want 2", in[1])
	}
}

func TestBuildCSR(t *testing.T) {
	g := &Graph{NumNodes: 3, Src: []int{0, 1, 2, 0}, Dst: []int{1, 2, 1, 2}}
	csr := BuildCSR(g.NumNodes, g.Src, g.Dst)
	if csr.RowPtr[1]-csr.RowPtr[0] != 0 {
		t.Fatal("node 0 has no incoming arcs")
	}
	// node 1 receives from 0 and 2.
	in1 := csr.Col[csr.RowPtr[1]:csr.RowPtr[2]]
	if len(in1) != 2 {
		t.Fatalf("node 1 incoming = %v", in1)
	}
	got := map[int]bool{in1[0]: true, in1[1]: true}
	if !got[0] || !got[2] {
		t.Fatalf("node 1 sources = %v, want {0,2}", in1)
	}
	// EID must point back at the original arcs.
	for v := 0; v < 3; v++ {
		for k := csr.RowPtr[v]; k < csr.RowPtr[v+1]; k++ {
			e := csr.EID[k]
			if g.Dst[e] != v || g.Src[e] != csr.Col[k] {
				t.Fatalf("EID mapping broken at node %d slot %d", v, k)
			}
		}
	}
}

func TestPropCSRPreservesEveryEdge(t *testing.T) {
	f := func(seed uint64, rawN uint8) bool {
		n := 2 + int(rawN)%20
		rng := tensor.NewRNG(seed)
		g := ErdosRenyi(rng, n, 0.3)
		csr := BuildCSR(g.NumNodes, g.Src, g.Dst)
		if csr.RowPtr[n] != g.NumEdges() {
			return false
		}
		seen := make([]bool, g.NumEdges())
		for v := 0; v < n; v++ {
			for k := csr.RowPtr[v]; k < csr.RowPtr[v+1]; k++ {
				e := csr.EID[k]
				if seen[e] || g.Dst[e] != v || g.Src[e] != csr.Col[k] {
					return false
				}
				seen[e] = true
			}
		}
		for _, s := range seen {
			if !s {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestBuildCSRRowsInArcOrder: BuildCSR is a stable sort by destination, so
// each row lists its arcs in increasing arc index — the order a scatter over
// the arc list adds them in, which lets one destination-row kernel stand in
// for PyG's scatter bit for bit. Fill re-sorts new arcs into the same slices
// without allocating and gives what BuildCSR gives.
func TestBuildCSRRowsInArcOrder(t *testing.T) {
	rng := tensor.NewRNG(9)
	const n = 40
	var src, dst []int
	for k := 0; k < 500; k++ { // unsorted, with duplicate arcs and self-loops
		s, d := rng.IntN(n), rng.IntN(n-5) // rows n-5.. stay empty
		src, dst = append(src, s), append(dst, d)
		if k%7 == 0 {
			src, dst = append(src, s), append(dst, d)
		}
		if k%11 == 0 {
			src, dst = append(src, d), append(dst, d)
		}
	}
	csr := BuildCSR(n, src, dst)
	check := func(stage string, src, dst []int) {
		t.Helper()
		for v := 0; v < n; v++ {
			prev := -1
			for q := csr.RowPtr[v]; q < csr.RowPtr[v+1]; q++ {
				e := csr.EID[q]
				if e <= prev || dst[e] != v || src[e] != csr.Col[q] {
					t.Fatalf("%s: row %d slot %d names arc %d after arc %d", stage, v, q, e, prev)
				}
				prev = e
			}
		}
		if csr.RowPtr[n] != len(src) {
			t.Fatalf("%s: CSR indexes %d arcs of %d", stage, csr.RowPtr[n], len(src))
		}
	}
	check("BuildCSR", src, dst)

	perm := rng.Perm(len(src))
	src2, dst2 := make([]int, len(src)), make([]int, len(dst))
	for k, p := range perm {
		src2[k], dst2[k] = dst[p]%n, src[p]%(n-5)
	}
	if a := testing.AllocsPerRun(5, func() { csr.Fill(src2, dst2) }); a != 0 {
		t.Errorf("Fill allocates %v times", a)
	}
	check("Fill", src2, dst2)
	want := BuildCSR(n, src2, dst2)
	for i := range want.EID {
		if csr.EID[i] != want.EID[i] || csr.Col[i] != want.Col[i] {
			t.Fatalf("Fill slot %d = (%d,%d), BuildCSR (%d,%d)", i, csr.Col[i], csr.EID[i], want.Col[i], want.EID[i])
		}
	}
	for i := range want.RowPtr {
		if csr.RowPtr[i] != want.RowPtr[i] {
			t.Fatalf("Fill row-ptr[%d] = %d, BuildCSR %d", i, csr.RowPtr[i], want.RowPtr[i])
		}
	}
}

func TestErdosRenyiSymmetric(t *testing.T) {
	g := ErdosRenyi(tensor.NewRNG(1), 20, 0.3)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	arcs := make(map[[2]int]bool)
	for i := range g.Src {
		arcs[[2]int{g.Src[i], g.Dst[i]}] = true
	}
	for a := range arcs {
		if !arcs[[2]int{a[1], a[0]}] {
			t.Fatalf("missing reverse of %v", a)
		}
	}
}

func TestPlantedPartitionHomophily(t *testing.T) {
	g, block := PlantedPartition(tensor.NewRNG(2), 60, 3, 0.5, 0.02)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	within, cross := 0, 0
	for i := range g.Src {
		if block[g.Src[i]] == block[g.Dst[i]] {
			within++
		} else {
			cross++
		}
	}
	if within <= cross {
		t.Fatalf("planted partition should be homophilous: within=%d cross=%d", within, cross)
	}
}

func TestPlantedPartitionSparseDegree(t *testing.T) {
	g, block := PlantedPartitionSparse(tensor.NewRNG(3), 1000, 3, 3.0, 1.0)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(block) != 1000 {
		t.Fatal("block assignment length wrong")
	}
	avgDeg := float64(g.NumEdges()) / float64(g.NumNodes)
	if avgDeg < 2 || avgDeg > 5 {
		t.Fatalf("average degree %v far from target ~3.5", avgDeg)
	}
}

func TestKNNGeometric(t *testing.T) {
	g := KNNGeometric(tensor.NewRNG(4), 30, 4)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Pos == nil || g.Pos.Rows() != 30 {
		t.Fatal("KNN graph must carry positions")
	}
	// Every node has at least k incident arcs (k chosen + any chosen by others).
	deg := g.InDegrees()
	for i, d := range deg {
		if d < 4 {
			t.Fatalf("node %d degree %v < k", i, d)
		}
	}
}

func TestKNNSmallN(t *testing.T) {
	g := KNNFromPositions(tensor.NewRNG(5).Uniform(0, 1, 2, 2), 8)
	if g.NumEdges() != 2 {
		t.Fatalf("2-node kNN should have one undirected edge, got %d arcs", g.NumEdges())
	}
	g1 := KNNFromPositions(tensor.NewRNG(6).Uniform(0, 1, 1, 2), 3)
	if g1.NumEdges() != 0 {
		t.Fatal("single node has no edges")
	}
}

func TestPreferentialAttachment(t *testing.T) {
	g := PreferentialAttachment(tensor.NewRNG(7), 100, 2)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	deg := g.InDegrees()
	var maxDeg float64
	for _, d := range deg {
		if d < 2 {
			t.Fatalf("every node should have degree >= m, got %v", d)
		}
		if d > maxDeg {
			maxDeg = d
		}
	}
	if maxDeg < 6 {
		t.Fatalf("preferential attachment should produce hubs, max degree %v", maxDeg)
	}
}

func TestGridPositionsInUnitSquare(t *testing.T) {
	pos := GridPositions(tensor.NewRNG(8), 49, 1.0)
	if pos.Rows() != 49 {
		t.Fatal("wrong count")
	}
	for i := 0; i < 49; i++ {
		for j := 0; j < 2; j++ {
			v := pos.At(i, j)
			if v < 0 || v > 1 {
				t.Fatalf("position %v outside unit square", v)
			}
		}
	}
	// Distinct grid cells should produce distinct rows (jitter < cell size).
	if pos.At(0, 0) == pos.At(1, 0) && pos.At(0, 1) == pos.At(1, 1) {
		t.Fatal("grid positions should differ")
	}
}

func TestNumFeatures(t *testing.T) {
	g := triangle()
	if g.NumFeatures() != 0 {
		t.Fatal("no features yet")
	}
	g.X = tensor.New(3, 5)
	if g.NumFeatures() != 5 {
		t.Fatal("NumFeatures wrong")
	}
}

// InDegrees returns the number of incoming arcs per node.
func (g *Graph) InDegrees() []float64 {
	deg := make([]float64, g.NumNodes)
	for _, d := range g.Dst {
		deg[d]++
	}
	return deg
}

// Undirected returns a copy of g with the reverse of every arc appended
// (skipping arcs whose reverse is already present is deliberately NOT done:
// datasets call this once on a one-direction edge list).
func (g *Graph) Undirected() *Graph {
	e := g.NumEdges()
	out := &Graph{
		NumNodes: g.NumNodes,
		Src:      make([]int, 0, 2*e),
		Dst:      make([]int, 0, 2*e),
		X:        g.X, Pos: g.Pos, Y: g.Y, Label: g.Label,
	}
	out.Src = append(out.Src, g.Src...)
	out.Dst = append(out.Dst, g.Dst...)
	for i := 0; i < e; i++ {
		out.Src = append(out.Src, g.Dst[i])
		out.Dst = append(out.Dst, g.Src[i])
	}
	if g.EdgeAttr != nil {
		out.EdgeAttr = tensor.ConcatRows(g.EdgeAttr, g.EdgeAttr)
	}
	return out
}

// PlantedPartition samples an undirected stochastic block model: nodes are
// assigned round-robin to k blocks; within-block pairs connect with pIn,
// cross-block pairs with pOut. Citation networks (Cora/PubMed) are modelled
// this way: papers cite mostly within their topic.
func PlantedPartition(rng *tensor.RNG, n, k int, pIn, pOut float64) (*Graph, []int) {
	block := make([]int, n)
	for i := range block {
		block[i] = i % k
	}
	rng.Shuffle(n, func(i, j int) { block[i], block[j] = block[j], block[i] })
	g := &Graph{NumNodes: n}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			p := pOut
			if block[i] == block[j] {
				p = pIn
			}
			if rng.Float64() < p {
				g.Src = append(g.Src, i, j)
				g.Dst = append(g.Dst, j, i)
			}
		}
	}
	return g, block
}
