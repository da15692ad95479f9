package graph

import (
	"math"
	"sort"

	"repro/internal/tensor"
)

// ErdosRenyi samples an undirected G(n, p) graph (both arcs stored).
func ErdosRenyi(rng *tensor.RNG, n int, p float64) *Graph {
	g := &Graph{NumNodes: n}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				g.Src = append(g.Src, i, j)
				g.Dst = append(g.Dst, j, i)
			}
		}
	}
	return g
}

// PlantedPartitionSparse builds a k-block planted-partition graph over n
// nodes. Instead of testing all O(n²) pairs it samples the expected number of
// within- and cross-block edges directly, which is how large sparse citation
// graphs (PubMed) are generated in reasonable time.
func PlantedPartitionSparse(rng *tensor.RNG, n, k int, avgDegIn, avgDegOut float64) (*Graph, []int) {
	block := make([]int, n)
	for i := range block {
		block[i] = i % k
	}
	rng.Shuffle(n, func(i, j int) { block[i], block[j] = block[j], block[i] })

	byBlock := make([][]int, k)
	for i, b := range block {
		byBlock[b] = append(byBlock[b], i)
	}
	g := &Graph{NumNodes: n}
	seen := make(map[[2]int]bool)
	addEdge := func(a, b int) {
		if a == b {
			return
		}
		if a > b {
			a, b = b, a
		}
		key := [2]int{a, b}
		if seen[key] {
			return
		}
		seen[key] = true
		g.Src = append(g.Src, a, b)
		g.Dst = append(g.Dst, b, a)
	}
	inEdges := int(float64(n) * avgDegIn / 2)
	for e := 0; e < inEdges; e++ {
		b := rng.IntN(k)
		members := byBlock[b]
		if len(members) < 2 {
			continue
		}
		addEdge(members[rng.IntN(len(members))], members[rng.IntN(len(members))])
	}
	outEdges := int(float64(n) * avgDegOut / 2)
	for e := 0; e < outEdges; e++ {
		addEdge(rng.IntN(n), rng.IntN(n))
	}
	return g, block
}

// KNNGeometric samples n points uniformly in the unit square and connects
// each to its k nearest neighbours (undirected). MNIST superpixel graphs are
// built this way from superpixel centroids.
func KNNGeometric(rng *tensor.RNG, n, k int) *Graph {
	pos := rng.Uniform(0, 1, n, 2)
	return KNNFromPositions(pos, k)
}

// KNNFromPositions connects each point to its k nearest neighbours by
// Euclidean distance. Both arcs of each chosen pair are stored once.
func KNNFromPositions(pos *tensor.Tensor, k int) *Graph {
	n := pos.Rows()
	g := &Graph{NumNodes: n, Pos: pos}
	if n <= 1 {
		return g
	}
	if k >= n {
		k = n - 1
	}
	type distIdx struct {
		d float64
		j int
	}
	seen := make(map[[2]int]bool)
	buf := make([]distIdx, 0, n)
	for i := 0; i < n; i++ {
		buf = buf[:0]
		xi, yi := pos.At(i, 0), pos.At(i, 1)
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			dx, dy := pos.At(j, 0)-xi, pos.At(j, 1)-yi
			buf = append(buf, distIdx{dx*dx + dy*dy, j})
		}
		sort.Slice(buf, func(a, b int) bool { return buf[a].d < buf[b].d })
		for _, e := range buf[:k] {
			a, b := i, e.j
			if a > b {
				a, b = b, a
			}
			key := [2]int{a, b}
			if seen[key] {
				continue
			}
			seen[key] = true
			g.Src = append(g.Src, a, b)
			g.Dst = append(g.Dst, b, a)
		}
	}
	return g
}

// PreferentialAttachment grows an undirected graph where each new node
// attaches to m existing nodes with probability proportional to degree
// (Barabási–Albert). Protein graphs (DD) have heavy-tailed degree profiles
// that this model approximates.
func PreferentialAttachment(rng *tensor.RNG, n, m int) *Graph {
	g := &Graph{NumNodes: n}
	if n == 0 {
		return g
	}
	if m < 1 {
		m = 1
	}
	// Repeated-endpoint list: sampling uniformly from it is degree-biased.
	var endpoints []int
	start := m + 1
	if start > n {
		start = n
	}
	// Fully connect the seed clique.
	for i := 0; i < start; i++ {
		for j := i + 1; j < start; j++ {
			g.Src = append(g.Src, i, j)
			g.Dst = append(g.Dst, j, i)
			endpoints = append(endpoints, i, j)
		}
	}
	for v := start; v < n; v++ {
		chosen := make(map[int]bool)
		for len(chosen) < m {
			var u int
			if len(endpoints) == 0 {
				u = rng.IntN(v)
			} else {
				u = endpoints[rng.IntN(len(endpoints))]
			}
			if u != v {
				chosen[u] = true
			}
		}
		// Drain the dedup set in sorted order: ranging the map directly
		// would append edges in Go's randomized iteration order, making the
		// generated graph differ run to run despite the seeded RNG.
		targets := make([]int, 0, len(chosen))
		for u := range chosen {
			targets = append(targets, u)
		}
		sort.Ints(targets)
		for _, u := range targets {
			g.Src = append(g.Src, u, v)
			g.Dst = append(g.Dst, v, u)
			endpoints = append(endpoints, u, v)
		}
	}
	return g
}

// GridPositions returns the centroids of an approximately sqrt(n) x sqrt(n)
// jittered grid covering the unit square — the layout of SLIC superpixel
// centroids over an image.
func GridPositions(rng *tensor.RNG, n int, jitter float64) *tensor.Tensor {
	side := int(math.Ceil(math.Sqrt(float64(n))))
	pos := tensor.New(n, 2)
	for i := 0; i < n; i++ {
		r, c := i/side, i%side
		cx := (float64(c) + 0.5) / float64(side)
		cy := (float64(r) + 0.5) / float64(side)
		pos.Set(i, 0, clamp01(cx+jitter*(rng.Float64()-0.5)/float64(side)))
		pos.Set(i, 1, clamp01(cy+jitter*(rng.Float64()-0.5)/float64(side)))
	}
	return pos
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
