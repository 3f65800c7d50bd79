// Package rng provides small, fast, deterministic pseudo-random number
// generators and distributions used throughout the simulator.
//
// Everything in this repository that is stochastic — synthetic workload
// generation, the Random replacement policy, BIP/BRRIP insertion coin
// flips — draws from rng.Source streams seeded explicitly, so every
// experiment is bit-reproducible across runs and platforms.
//
// The core generator is xorshift64* (Vigna, 2016): a 64-bit state xorshift
// with a multiplicative output scrambler. It is not cryptographically
// secure, which is irrelevant here; it is fast, has a period of 2^64-1 and
// passes BigCrush on the high bits.
package rng

import "math/bits"

// Source is a deterministic 64-bit pseudo-random generator.
//
// The zero value is not usable; construct with New. Source is not safe for
// concurrent use; give each goroutine its own stream (see Split).
type Source struct {
	state uint64
}

// New returns a Source seeded with seed. A zero seed is remapped to a
// fixed non-zero constant because xorshift has a zero fixed point.
func New(seed uint64) *Source {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15 // golden-ratio constant
	}
	s := &Source{state: seed}
	// Warm up so that low-entropy seeds (1, 2, 3, ...) decorrelate.
	for i := 0; i < 8; i++ {
		s.Uint64()
	}
	return s
}

// Split derives an independent child stream from s. The child's sequence
// is decorrelated from the parent's by hashing the parent's next output
// with a distinct odd constant, so calling Split repeatedly yields streams
// that do not overlap in practice.
func (s *Source) Split() *Source {
	x := s.Uint64()
	x ^= 0xD1B54A32D192ED03
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return New(x)
}

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	x := s.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	s.state = x
	return x * 0x2545F4914F6CDD1D
}

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	return int(s.Uint64n(uint64(n)))
}

// Uint64n returns a uniformly distributed uint64 in [0, n) using Lemire's
// multiply-shift rejection method. It panics if n == 0.
func (s *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n called with zero n")
	}
	// Lemire's method: compute the 128-bit product x*n and keep the high
	// word, rejecting the small biased region of the low word.
	for {
		x := s.Uint64()
		hi, lo := bits.Mul64(x, n)
		if lo >= n || lo >= -n%n { // -n%n == (2^64 - n) % n
			return hi
		}
	}
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (s *Source) Float64() float64 {
	// 53 high-quality bits → [0,1) with full double precision.
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p (clamped to [0,1]).
func (s *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}
