package tensor

import (
	"math"
	"math/rand"
)

// RNG wraps math/rand with helpers for reproducible weight initialisation
// and sampling. Every simulation entity owns its own RNG derived from the
// run seed, so parallel execution cannot perturb the random stream.
type RNG struct{ *rand.Rand }

// NewRNG returns a deterministic RNG for the given seed.
func NewRNG(seed int64) *RNG {
	return &RNG{rand.New(rand.NewSource(seed))}
}

// Split derives a child RNG from this one, keyed by id. Children with
// distinct ids have independent-looking streams and are stable across
// runs: the derivation depends only on the parent seed and id, not on how
// much of the parent stream has been consumed.
func Split(seed int64, id int64) *RNG {
	return NewRNG(splitSeed(seed, id))
}

// Reseed turns r into Split(seed, id) in place, whatever it has drawn so
// far: a loop that needs a stream per device or per edge re-seeds one
// generator instead of allocating a 4.9 KB math/rand source per child.
func (r *RNG) Reseed(seed int64, id int64) { r.Seed(splitSeed(seed, id)) }

// splitSeed is SplitMix64-style mixing of (seed, id) to decorrelate
// child streams.
func splitSeed(seed int64, id int64) int64 {
	z := uint64(seed) + uint64(id)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// FillNormal fills t with N(mean, std²) samples.
func (r *RNG) FillNormal(t *Tensor, mean, std float64) {
	for i := range t.Data {
		t.Data[i] = mean + std*r.NormFloat64()
	}
}

// FillUniform fills t with U[lo, hi) samples.
func (r *RNG) FillUniform(t *Tensor, lo, hi float64) {
	for i := range t.Data {
		t.Data[i] = lo + (hi-lo)*r.Float64()
	}
}

// XavierUniform fills t with the Glorot/Xavier uniform initialisation for
// a layer with the given fan-in and fan-out.
func (r *RNG) XavierUniform(t *Tensor, fanIn, fanOut int) {
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	r.FillUniform(t, -limit, limit)
}

// HeNormal fills t with the He/Kaiming normal initialisation for a layer
// with the given fan-in (appropriate before ReLU).
func (r *RNG) HeNormal(t *Tensor, fanIn int) {
	std := math.Sqrt(2.0 / float64(fanIn))
	r.FillNormal(t, 0, std)
}

// Perm returns a random permutation of [0, n), like rand.Perm.
func (r *RNG) Permutation(n int) []int { return r.Perm(n) }
