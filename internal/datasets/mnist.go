package datasets

import (
	"math"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// MNISTSuperpixels returns a synthetic stand-in for the MNIST superpixel
// dataset of Monti et al.: 70000 digit images converted to graphs whose nodes
// are SLIC-style superpixels (avg ~70.6 per image), connected by spatial
// k-nearest-neighbour edges (~565 arcs on average), carrying one intensity
// feature per node (Table I: #Feature 1) and node positions as coordinates.
//
// The pipeline mirrors the real one end to end with synthetic inputs: stroke
// skeletons render each digit class into an intensity field, jittered grid
// seeds play the role of SLIC cluster centroids, each superpixel's feature is
// the field intensity at its centroid, and the graph is the k-NN graph of
// the centroids.
func MNISTSuperpixels(opt Options) *Dataset {
	s := opt.scale()
	count := scaled(70000, s, 40)
	rng := tensor.NewRNG(opt.Seed ^ hashName("MNIST"))
	d := &Dataset{Name: "MNIST", NumClasses: 10, NumFeatures: 1}
	for i := 0; i < count; i++ {
		digit := i % 10
		d.Graphs = append(d.Graphs, superpixelGraph(rng, digit))
	}
	return d
}

// superpixelGraph builds one digit's superpixel graph.
func superpixelGraph(rng *tensor.RNG, digit int) *graph.Graph {
	// SLIC seeds ~N(70.6): jittered grid centroids over the image plane.
	n := 64 + rng.IntN(14)
	pos := graph.GridPositions(rng, n, 0.9)

	// Render the digit's stroke skeleton with small instance-specific
	// distortion and sample intensity at each centroid.
	strokes := digitStrokes(digit)
	dx := float64(0.06 * rng.NormFloat64())
	dy := float64(0.06 * rng.NormFloat64())
	scale := 1 + float64(0.08*rng.NormFloat64())
	x := tensor.New(n, 1)
	for v := 0; v < n; v++ {
		px := (pos.At(v, 0)-0.5)/scale + 0.5 - dx
		py := (pos.At(v, 1)-0.5)/scale + 0.5 - dy
		dist := strokeDistance(strokes, px, py)
		// Gaussian falloff around the stroke, plus sensor noise.
		inten := math.Exp(-dist*dist/(2*0.045*0.045)) + float64(0.05*rng.NormFloat64())
		x.Set(v, 0, clamp01f(inten))
	}

	// k-NN over centroids: k=6 reproduces Table I's ~565 arcs per graph.
	g := graph.KNNFromPositions(pos, 6)
	g.X = x
	g.Label = digit
	return g.WithSelfLoops()
}

type segment struct{ x1, y1, x2, y2 float64 }

// digitStrokes returns a polyline skeleton per digit class in the unit
// square (y grows downward, as in image coordinates).
func digitStrokes(d int) []segment {
	switch d {
	case 0:
		return ring(0.5, 0.5, 0.28, 0.38, 10)
	case 1:
		return []segment{{0.45, 0.25, 0.55, 0.15}, {0.55, 0.15, 0.55, 0.85}}
	case 2:
		return append(arc(0.5, 0.32, 0.22, -math.Pi, 0.4, 6),
			segment{0.68, 0.42, 0.3, 0.85}, segment{0.3, 0.85, 0.72, 0.85})
	case 3:
		return append(arc(0.48, 0.32, 0.2, -math.Pi*0.9, math.Pi*0.5, 6),
			arc(0.48, 0.68, 0.2, -math.Pi*0.5, math.Pi*0.9, 6)...)
	case 4:
		return []segment{{0.6, 0.15, 0.3, 0.6}, {0.3, 0.6, 0.75, 0.6}, {0.6, 0.15, 0.6, 0.85}}
	case 5:
		return append([]segment{{0.7, 0.15, 0.35, 0.15}, {0.35, 0.15, 0.33, 0.48}},
			arc(0.5, 0.65, 0.21, -math.Pi*0.6, math.Pi*0.8, 6)...)
	case 6:
		return append([]segment{{0.62, 0.15, 0.38, 0.5}}, ring(0.5, 0.66, 0.18, 0.18, 8)...)
	case 7:
		return []segment{{0.3, 0.15, 0.72, 0.15}, {0.72, 0.15, 0.45, 0.85}}
	case 8:
		return append(ring(0.5, 0.32, 0.17, 0.16, 8), ring(0.5, 0.68, 0.2, 0.18, 8)...)
	case 9:
		return append(ring(0.5, 0.34, 0.18, 0.18, 8), segment{0.66, 0.4, 0.58, 0.85})
	}
	panic("datasets: digit out of range")
}

func ring(cx, cy, rx, ry float64, steps int) []segment {
	var segs []segment
	for i := 0; i < steps; i++ {
		a1 := 2 * math.Pi * float64(i) / float64(steps)
		a2 := 2 * math.Pi * float64(i+1) / float64(steps)
		segs = append(segs, segment{cx + float64(rx*math.Cos(a1)), cy + float64(ry*math.Sin(a1)),
			cx + float64(rx*math.Cos(a2)), cy + float64(ry*math.Sin(a2))})
	}
	return segs
}

func arc(cx, cy, r, a1, a2 float64, steps int) []segment {
	var segs []segment
	for i := 0; i < steps; i++ {
		t1 := a1 + (a2-a1)*float64(i)/float64(steps)
		t2 := a1 + (a2-a1)*float64(i+1)/float64(steps)
		segs = append(segs, segment{cx + float64(r*math.Cos(t1)), cy + float64(r*math.Sin(t1)),
			cx + float64(r*math.Cos(t2)), cy + float64(r*math.Sin(t2))})
	}
	return segs
}

// strokeDistance returns the distance from (x,y) to the nearest skeleton
// segment.
func strokeDistance(segs []segment, x, y float64) float64 {
	best := math.Inf(1)
	for _, s := range segs {
		if d := pointSegmentDistance(x, y, s); d < best {
			best = d
		}
	}
	return best
}

func pointSegmentDistance(x, y float64, s segment) float64 {
	vx, vy := s.x2-s.x1, s.y2-s.y1
	wx, wy := x-s.x1, y-s.y1
	l2 := float64(vx*vx) + float64(vy*vy)
	t := 0.0
	if l2 > 0 {
		t = (float64(wx*vx) + float64(wy*vy)) / l2
		if t < 0 {
			t = 0
		} else if t > 1 {
			t = 1
		}
	}
	dx, dy := x-(s.x1+float64(t*vx)), y-(s.y1+float64(t*vy))
	return math.Sqrt(float64(dx*dx) + float64(dy*dy))
}

func clamp01f(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
