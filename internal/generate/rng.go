package generate

import "math/bits"

// rng is a small, fast, deterministic pseudo-random generator
// (xoshiro256**-style core seeded by splitmix64). Generators in this package
// must be reproducible across runs and platforms so that experiments are
// repeatable; stdlib math/rand would also work, but a local implementation
// pins the sequence independent of Go release behaviour.
type rng struct {
	s [4]uint64
}

func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func newRNG(seed uint64) *rng {
	r := &rng{}
	for i := range r.s {
		r.s[i] = splitmix64(&seed)
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 pseudo-random bits.
func (r *rng) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform float64 in [0, 1).
func (r *rng) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Uint64n returns a uniform value in [0, n). n must be > 0.
func (r *rng) Uint64n(n uint64) uint64 {
	// Lemire's multiply-shift rejection method.
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}
