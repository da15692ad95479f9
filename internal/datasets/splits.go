package datasets

import (
	"fmt"
	"sort"

	"repro/internal/tensor"
)

// StratifiedKFold splits sample indices into k folds whose class
// distributions match the input's, as the paper's 10-fold cross-validation
// protocol requires (Sec. IV-B.1: "stratified sampling to ensure that the
// class distribution remains the same across splits"). Folds are returned as
// index lists; fold i serves as the test split of round i.
func StratifiedKFold(rng *tensor.RNG, labels []int, k int) [][]int {
	if k < 2 {
		panic(fmt.Sprintf("datasets: k-fold needs k >= 2, got %d", k))
	}
	byClass := map[int][]int{}
	classes := []int{}
	for i, c := range labels {
		if byClass[c] == nil {
			classes = append(classes, c)
		}
		byClass[c] = append(byClass[c], i)
	}
	// Iterate classes in a deterministic order (map order is random) and
	// rotate each class's starting fold so leftover samples spread evenly
	// instead of piling onto the first folds.
	sortInts(classes)
	folds := make([][]int, k)
	offset := 0
	for _, c := range classes {
		members := byClass[c]
		rng.Shuffle(len(members), func(i, j int) { members[i], members[j] = members[j], members[i] })
		for i, idx := range members {
			f := (i + offset) % k
			folds[f] = append(folds[f], idx)
		}
		offset = (offset + len(members)) % k
	}
	return folds
}

// CVSplit is one cross-validation round: train/validation/test index lists
// in the paper's 8:1:1 arrangement.
type CVSplit struct {
	Train, Val, Test []int
}

// CrossValidationSplits builds the paper's 10 rounds from k folds: round i
// tests on fold i, validates on fold (i+1)%k, and trains on the rest.
// At least 3 folds are required — with 2, no fold would remain for training.
func CrossValidationSplits(folds [][]int) []CVSplit {
	k := len(folds)
	if k < 3 {
		panic(fmt.Sprintf("datasets: cross-validation needs at least 3 folds, got %d (test and validation each take one)", k))
	}
	splits := make([]CVSplit, k)
	for i := 0; i < k; i++ {
		s := CVSplit{Test: folds[i], Val: folds[(i+1)%k]}
		for j := 0; j < k; j++ {
			if j != i && j != (i+1)%k {
				s.Train = append(s.Train, folds[j]...)
			}
		}
		splits[i] = s
	}
	return splits
}

func sortInts(s []int) {
	sort.Ints(s)
}
