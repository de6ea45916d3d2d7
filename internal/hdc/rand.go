// Package hdc implements the hyperdimensional-computing substrate used by
// GraphHD: hypervectors in bipolar and bit-packed binary form, the three
// fundamental operations (bundling, binding, permutation), similarity
// metrics, item memories for basis hypervectors and an associative memory
// for nearest-class queries.
//
// All randomness in the package flows through the deterministic splitmix64
// generator defined in this file so that every hypervector, and therefore
// every experiment built on top of them, is reproducible bit-for-bit from
// an explicit seed.
package hdc

// RNG is a small, fast, deterministic pseudo-random generator based on
// splitmix64. It is intentionally independent of math/rand so that the
// stream of hypervectors never changes across Go releases.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. Distinct seeds give
// statistically independent streams.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// gamma is splitmix64's state increment: the k-th output of a generator
// seeded with s is the mix of s + k·gamma, so any position of a stream can
// be reached without drawing the outputs before it.
const gamma = 0x9e3779b97f4a7c15

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += gamma
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform pseudo-random int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("hdc: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded sampling would be overkill here;
	// the simple modulo bias is negligible for the small n used in this
	// repository (n << 2^32), but we still reject the biased tail to keep
	// the generator exactly uniform.
	bound := uint64(n)
	limit := -bound % bound // (2^64 - bound) mod bound
	for {
		v := r.Uint64()
		if v >= limit {
			return int(v % bound)
		}
	}
}

// Float64 returns a uniform pseudo-random float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Perm returns a pseudo-random permutation of [0, n) using Fisher-Yates.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Split derives an independent child generator. It advances the parent
// once, so repeated Split calls yield distinct children.
func (r *RNG) Split() *RNG {
	return &RNG{state: r.Uint64() ^ 0xd2b74407b1ce6e93}
}
