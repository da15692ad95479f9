package datasets

import (
	"repro/internal/graph"
	"repro/internal/tensor"
)

// citationSpec parameterizes a synthetic citation network.
type citationSpec struct {
	name             string
	nodes            int
	features         int
	classes          int
	avgDegIn         float64 // within-class average degree
	avgDegOut        float64 // cross-class average degree
	wordsPerDoc      int
	topicBias        float64
	labelNoise       float64 // fraction of nodes with a randomly reassigned label
	trainPerClass    int
	valNodes         int
	testNodes        int
	weightedFeatures bool // TF-IDF-like values instead of binary
}

// Cora returns a synthetic stand-in for the Cora citation network: 2708
// papers, ~5429 citations, 1433-word binary bag-of-words features, 7 topics,
// with the standard 140/500/1000 train/val/test split (Sec. IV-A).
func Cora(opt Options) *Dataset {
	s := opt.scale()
	return buildCitation(citationSpec{
		name:          "Cora",
		nodes:         scaled(2708, s, 60),
		features:      1433,
		classes:       7,
		avgDegIn:      3.2,
		avgDegOut:     0.8,
		wordsPerDoc:   18,
		topicBias:     0.5,
		labelNoise:    0.12,
		trainPerClass: scaled(20, s, 2),
		valNodes:      scaled(500, s, 14),
		testNodes:     scaled(1000, s, 14),
	}, opt.Seed)
}

// PubMed returns a synthetic stand-in for the PubMed citation network: 19717
// papers, ~44338 citations, 500 TF-IDF features, 3 topics, with the standard
// 60/500/1000 split.
func PubMed(opt Options) *Dataset {
	s := opt.scale()
	return buildCitation(citationSpec{
		name:             "PubMed",
		nodes:            scaled(19717, s, 60),
		features:         500,
		classes:          3,
		avgDegIn:         3.6,
		avgDegOut:        0.9,
		wordsPerDoc:      50,
		topicBias:        0.45,
		labelNoise:       0.14,
		trainPerClass:    scaled(20, s, 2),
		valNodes:         scaled(500, s, 6),
		testNodes:        scaled(1000, s, 6),
		weightedFeatures: true,
	}, opt.Seed)
}

func buildCitation(spec citationSpec, seed uint64) *Dataset {
	rng := tensor.NewRNG(seed ^ hashName(spec.name))
	g, block := graph.PlantedPartitionSparse(rng, spec.nodes, spec.classes, spec.avgDegIn, spec.avgDegOut)
	// Label noise bounds achievable accuracy below 100%, matching the real
	// citation benchmarks' Bayes error (features still follow the original
	// community, as mislabeled real papers do).
	labels := append([]int(nil), block...)
	for v := range labels {
		if rng.Float64() < spec.labelNoise {
			labels[v] = rng.IntN(spec.classes)
		}
	}
	g.Y = labels

	pools := topicPools(spec.features, spec.classes)
	g.X = tensor.New(spec.nodes, spec.features)
	for v := 0; v < spec.nodes; v++ {
		value := func() float64 { return 1.0 }
		if spec.weightedFeatures {
			value = func() float64 { return 0.2 + float64(rng.Float64()) }
		}
		bagOfWords(rng, g.X.Row(v), pools[block[v]], spec.features, spec.wordsPerDoc, spec.topicBias, value)
	}

	g = g.WithSelfLoops()
	d := &Dataset{
		Name:        spec.name,
		Graphs:      []*graph.Graph{g},
		NumClasses:  spec.classes,
		NumFeatures: spec.features,
	}
	d.TrainIdx, d.ValIdx, d.TestIdx = planarSplit(rng, labels, spec.classes, spec.trainPerClass, spec.valNodes, spec.testNodes)
	return d
}

// planarSplit draws the paper's citation split: trainPerClass stratified
// training nodes, then disjoint validation and test pools.
func planarSplit(rng *tensor.RNG, labels []int, classes, trainPerClass, valN, testN int) (train, val, test []int) {
	perm := rng.Perm(len(labels))
	taken := make([]bool, len(labels))
	counts := make([]int, classes)
	for _, v := range perm {
		if counts[labels[v]] < trainPerClass {
			counts[labels[v]]++
			taken[v] = true
			train = append(train, v)
		}
	}
	for _, v := range perm {
		if taken[v] {
			continue
		}
		switch {
		case len(val) < valN:
			val = append(val, v)
		case len(test) < testN:
			test = append(test, v)
		}
	}
	return train, val, test
}

// hashName gives each dataset an independent RNG stream for the same seed.
func hashName(name string) uint64 {
	var h uint64 = 1469598103934665603
	for _, c := range name {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}
