package tensor

import "math/rand/v2"

// RNG is a seeded pseudo-random source for tensor initialization and dataset
// generation. All experiment randomness flows through explicitly-seeded RNGs
// so runs are reproducible.
type RNG struct {
	src *rand.PCG // kept so the stream position can be checkpointed
	r   *rand.Rand
}

// NewRNG returns a deterministic generator seeded with seed.
func NewRNG(seed uint64) *RNG {
	src := rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)
	return &RNG{src: src, r: rand.New(src)}
}

// MarshalBinary captures the generator's exact stream position, so a
// restored RNG continues with the same draws an uninterrupted one would
// produce — the invariant crash-safe training resume depends on. (PCG keeps
// no buffered values outside its 128-bit state, so the source state is the
// whole story.)
func (g *RNG) MarshalBinary() ([]byte, error) { return g.src.MarshalBinary() }

// UnmarshalBinary restores a position captured by MarshalBinary.
func (g *RNG) UnmarshalBinary(data []byte) error { return g.src.UnmarshalBinary(data) }

// Float64 returns a uniform value in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// NormFloat64 returns a standard normal value.
func (g *RNG) NormFloat64() float64 { return g.r.NormFloat64() }

// IntN returns a uniform value in [0, n).
func (g *RNG) IntN(n int) int { return g.r.IntN(n) }

// Perm returns a random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Shuffle permutes the first n indices using swap.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }

// Randn returns a tensor of i.i.d. N(0, std²) values.
func (g *RNG) Randn(std float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = std * g.r.NormFloat64()
	}
	return t
}

// Uniform returns a tensor of i.i.d. values in [lo, hi).
func (g *RNG) Uniform(lo, hi float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = lo + float64((hi-lo)*g.r.Float64())
	}
	return t
}

// BernoulliInto fills dst with 0/1 values, each 1 with probability p, drawing
// exactly the same stream Bernoulli would. Replayed dropout masks regenerate
// into their pooled buffer through this.
func (g *RNG) BernoulliInto(dst *Tensor, p float64) {
	for i := range dst.Data {
		if g.r.Float64() < p {
			dst.Data[i] = 1
		} else {
			dst.Data[i] = 0
		}
	}
}
