package datasets

import (
	"math"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// Enzymes returns a synthetic stand-in for the ENZYMES protein dataset: 600
// graphs in 6 balanced classes, sizes 2-126 nodes (avg ~32.6), ~62 undirected
// edges on average, 18 continuous node features. Class structure comes from
// both topology (class-dependent edge density) and features (class-dependent
// mean directions), so GNNs reach the paper's mid-60s accuracy band while
// leaving residual confusion between neighboring classes.
func Enzymes(opt Options) *Dataset {
	s := opt.scale()
	const classes = 6
	count := scaled(600, s, classes*4)
	rng := tensor.NewRNG(opt.Seed ^ hashName("ENZYMES"))
	const feat = 18
	protos := classPrototypes(rng, classes, feat, 0.9)

	d := &Dataset{Name: "ENZYMES", NumClasses: classes, NumFeatures: feat}
	for i := 0; i < count; i++ {
		c := i % classes
		// Log-normalish size in [2,126] with mean near 32.6.
		n := clampInt(int(math.Exp(3.28+float64(0.55*rng.NormFloat64()))), 2, 126)
		// Class-dependent density: average degree 3.2 .. 4.4.
		deg := 3.2 + 1.2*float64(c)/float64(classes-1)
		g := sparseRandom(rng, n, deg)
		g.X = classFeatures(rng, n, protos[c], 1.0)
		g.Label = c
		d.Graphs = append(d.Graphs, g.WithSelfLoops())
	}
	return d
}

// DD returns a synthetic stand-in for the D&D protein dataset: 1178 graphs in
// 2 classes, sizes 30-5748 (avg ~284), ~716 undirected edges on average, and
// 89 one-hot amino-acid-type features. Class structure: enzymes (label 0)
// are denser with a different residue composition than non-enzymes.
func DD(opt Options) *Dataset {
	s := opt.scale()
	const classes = 2
	count := scaled(1178, s, classes*4)
	rng := tensor.NewRNG(opt.Seed ^ hashName("DD"))
	const feat = 89
	// Two class-conditional residue distributions sharing most mass.
	comp := [2][]float64{residueDistribution(rng, feat, 0), residueDistribution(rng, feat, 1)}

	d := &Dataset{Name: "DD", NumClasses: classes, NumFeatures: feat}
	// Scale shrinks the graph count linearly but graph sizes only by sqrt(s):
	// DD's role in the study is "the dataset whose graphs are big enough to
	// be compute-bound" (Fig 2), which a linear size cut would destroy.
	sizeScale := math.Sqrt(s)
	maxNodes := clampInt(int(5748*sizeScale), 126, 5748)
	for i := 0; i < count; i++ {
		c := i % classes
		n := clampInt(int(float64(math.Exp(5.35+float64(0.62*rng.NormFloat64()))*sizeScale)+30), 30, maxNodes)
		// Enzymes slightly denser: avg degree 5.4 vs 4.6.
		deg := 4.6
		if c == 0 {
			deg = 5.4
		}
		g := sparseRandom(rng, n, deg)
		g.X = oneHotFeatures(rng, n, comp[c])
		g.Label = c
		d.Graphs = append(d.Graphs, g.WithSelfLoops())
	}
	return d
}

// sparseRandom samples a connected-ish undirected graph with the target
// average degree in O(V+E): a random spanning chain plus random extra pairs.
func sparseRandom(rng *tensor.RNG, n int, avgDeg float64) *graph.Graph {
	g := &graph.Graph{NumNodes: n}
	if n == 1 {
		return g
	}
	type pair struct{ a, b int }
	seen := make(map[pair]bool, n*2)
	add := func(a, b int) {
		if a == b {
			return
		}
		if a > b {
			a, b = b, a
		}
		p := pair{a, b}
		if seen[p] {
			return
		}
		seen[p] = true
		g.Src = append(g.Src, a, b)
		g.Dst = append(g.Dst, b, a)
	}
	// Spanning chain over a random permutation keeps the protein connected.
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		add(perm[i-1], perm[i])
	}
	target := int(avgDeg * float64(n) / 2)
	// A graph can hold at most n(n-1)/2 distinct edges; without this cap the
	// sampling loop below could never terminate on tiny proteins (ENZYMES
	// sizes go down to 2 nodes).
	if maxEdges := n * (n - 1) / 2; target > maxEdges {
		target = maxEdges
	}
	for len(seen) < target {
		add(rng.IntN(n), rng.IntN(n))
	}
	return g
}

// classPrototypes draws one mean direction per class, scaled by strength.
func classPrototypes(rng *tensor.RNG, classes, feat int, strength float64) []*tensor.Tensor {
	protos := make([]*tensor.Tensor, classes)
	for c := range protos {
		p := rng.Randn(1, feat)
		norm := tensor.Norm(p)
		tensor.ScaleInPlace(p, strength/norm*math.Sqrt(float64(feat)))
		protos[c] = p
	}
	return protos
}

// classFeatures samples node rows around the class prototype with unit noise.
func classFeatures(rng *tensor.RNG, n int, proto *tensor.Tensor, noise float64) *tensor.Tensor {
	feat := proto.Size()
	x := rng.Randn(noise, n, feat)
	for v := 0; v < n; v++ {
		row := x.Row(v)
		for j := 0; j < feat; j++ {
			row[j] += proto.Data[j]
		}
	}
	return x
}

// residueDistribution returns a class-conditional categorical distribution
// over residue types; the two classes differ in a minority of types.
func residueDistribution(rng *tensor.RNG, feat, class int) []float64 {
	w := make([]float64, feat)
	var total float64
	for j := range w {
		w[j] = 0.2 + float64(rng.Float64())
		// A class-specific band of residues is enriched.
		if j%2 == class {
			w[j] *= 1.6
		}
		total += w[j]
	}
	for j := range w {
		w[j] /= total
	}
	return w
}

// oneHotFeatures samples one-hot rows from the given distribution.
func oneHotFeatures(rng *tensor.RNG, n int, dist []float64) *tensor.Tensor {
	feat := len(dist)
	x := tensor.New(n, feat)
	for v := 0; v < n; v++ {
		r := rng.Float64()
		var acc float64
		idx := feat - 1
		for j, p := range dist {
			acc += p
			if r < acc {
				idx = j
				break
			}
		}
		x.Set(v, idx, 1)
	}
	return x
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
