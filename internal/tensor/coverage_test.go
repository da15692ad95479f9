package tensor

import (
	"math"
	"testing"
)

// Direct tests for utility functions otherwise exercised only through other
// packages (per-package coverage does not see cross-package use).

func TestInPlaceAccumulators(t *testing.T) {
	a := FromSlice([]float64{1, 2}, 2)
	AddInPlace(a, FromSlice([]float64{10, 20}, 2))
	if a.Data[1] != 22 {
		t.Fatalf("AddInPlace wrong: %v", a.Data)
	}
	AddScaled(a, -2, FromSlice([]float64{1, 1}, 2))
	if a.Data[0] != 9 || a.Data[1] != 20 {
		t.Fatalf("AddScaled wrong: %v", a.Data)
	}
}

func TestUnaryMaps(t *testing.T) {
	x := FromSlice([]float64{1, 4}, 2)
	if Neg(x).Data[0] != -1 {
		t.Fatal("Neg wrong")
	}
	if math.Abs(Exp(x).Data[0]-math.E) > 1e-12 {
		t.Fatal("Exp wrong")
	}
	if Square(x).Data[1] != 16 {
		t.Fatal("Square wrong")
	}
	if math.Abs(Tanh(FromSlice([]float64{0}, 1)).Data[0]) > 1e-12 {
		t.Fatal("Tanh wrong")
	}
}

func TestArgMaxRowsDirect(t *testing.T) {
	x := FromSlice([]float64{1, 3, 2, 9, 0, -1}, 2, 3)
	arg := ArgMaxRows(x)
	if arg[0] != 1 || arg[1] != 0 {
		t.Fatalf("ArgMaxRows wrong: %v", arg)
	}
}

func TestRNGHelpers(t *testing.T) {
	g := NewRNG(3)
	if v := g.Float64(); v < 0 || v >= 1 {
		t.Fatalf("Float64 out of range: %v", v)
	}
	_ = g.NormFloat64()
	if n := g.IntN(5); n < 0 || n >= 5 {
		t.Fatalf("IntN out of range: %v", n)
	}
	perm := g.Perm(6)
	seen := map[int]bool{}
	for _, p := range perm {
		seen[p] = true
	}
	if len(seen) != 6 {
		t.Fatalf("Perm not a permutation: %v", perm)
	}
	vals := []int{0, 1, 2, 3}
	g.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	u := g.Uniform(2, 3, 10)
	for _, v := range u.Data {
		if v < 2 || v >= 3 {
			t.Fatalf("Uniform out of range: %v", v)
		}
	}
	b := g.Bernoulli(0.5, 100)
	ones := 0
	for _, v := range b.Data {
		if v != 0 && v != 1 {
			t.Fatalf("Bernoulli non-binary: %v", v)
		}
		if v == 1 {
			ones++
		}
	}
	if ones == 0 || ones == 100 {
		t.Fatalf("Bernoulli degenerate: %d ones", ones)
	}
}

func TestMeanEmpty(t *testing.T) {
	e := FromSlice(nil, 0)
	if Mean(e) != 0 {
		t.Fatal("empty mean must be 0")
	}
}
