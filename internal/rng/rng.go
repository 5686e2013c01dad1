// Package rng implements the "minimal standard" multiplicative linear
// congruential pseudo-random number generator of Park and Miller, using the
// fast implementation techniques described by Carta (CACM 33(1), 1990) —
// the generator the paper's §6 recommends for producing routing-timer
// jitter ("Pseudo-random numbers ... could be efficiently generated by a
// random number generator [Ca90]").
//
// The generator is x' = 16807·x mod (2^31 − 1). It is deterministic,
// splittable into independent streams, and fast enough to sit on the hot
// path of a discrete-event simulation. All simulation randomness in this
// repository flows through this package so that every experiment is exactly
// reproducible from its seed.
package rng

import "math"

const (
	// Modulus is the Mersenne prime 2^31 − 1 used by the minimal standard
	// generator.
	Modulus = 2147483647
	// Multiplier is the primitive root 7^5 = 16807.
	Multiplier = 16807
)

// Source is a minimal standard Park–Miller generator. The zero value is not
// valid; use New. Source is not safe for concurrent use — give each
// goroutine its own stream via Split.
type Source struct {
	state int64
}

// New returns a Source seeded with seed. Any seed is accepted: it is folded
// into the valid range [1, Modulus−1]. (State 0 is a fixed point of the
// recurrence and must be avoided.)
func New(seed int64) *Source {
	s := &Source{}
	s.Seed(seed)
	return s
}

// Seed resets the generator state, folding seed into [1, Modulus−1].
func (s *Source) Seed(seed int64) {
	seed %= Modulus
	if seed < 0 {
		seed += Modulus
	}
	if seed == 0 {
		seed = 1
	}
	s.state = seed
}

// Next advances the generator and returns the next raw value in
// [1, Modulus−1].
//
// The update uses Schrage's factorization as popularized by Carta's paper:
// with q = m div a and r = m mod a, a·x mod m can be computed without
// overflowing 32-bit intermediates. We hold state in int64 so the direct
// product would also be safe, but we keep the classic factorization both as
// a nod to the cited implementation and because it is branch-predictable.
func (s *Source) Next() int64 {
	const (
		q = Modulus / Multiplier // 127773
		r = Modulus % Multiplier // 2836
	)
	hi := s.state / q
	lo := s.state % q
	t := Multiplier*lo - r*hi
	if t <= 0 {
		t += Modulus
	}
	s.state = t
	return t
}

// Float64 returns a uniform float64 in the half-open interval [0, 1).
// The raw value is in [1, Modulus−1], so the result is in
// (0, 1) strictly; we map value 1 down toward 0 by subtracting 1 to get a
// conventional [0,1) distribution over (Modulus−2) equally likely points.
func (s *Source) Float64() float64 {
	return float64(s.Next()-1) / float64(Modulus-1)
}

// Uniform returns a uniform float64 in [lo, hi). It panics if hi < lo.
func (s *Source) Uniform(lo, hi float64) float64 {
	if hi < lo {
		panic("rng: Uniform called with hi < lo")
	}
	return lo + (hi-lo)*s.Float64()
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
// A simple rejection step removes modulo bias.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	max := int64(Modulus - 1)
	limit := max - max%int64(n)
	for {
		v := s.Next() - 1 // [0, Modulus−2]
		if v < limit {
			return int(v % int64(n))
		}
	}
}

// Exponential returns an exponentially distributed float64 with the given
// mean (rate 1/mean). It panics if mean <= 0.
func (s *Source) Exponential(mean float64) float64 {
	if mean <= 0 {
		panic("rng: Exponential called with mean <= 0")
	}
	// Float64 returns [0,1); flip to (0,1] so Log never sees 0.
	u := 1 - s.Float64()
	return -mean * math.Log(u)
}

// Bernoulli returns true with probability p. It panics unless 0 <= p <= 1.
func (s *Source) Bernoulli(p float64) bool {
	if p < 0 || p > 1 {
		panic("rng: Bernoulli probability out of range")
	}
	return s.Float64() < p
}

// Split returns a new Source whose stream is decorrelated from s. The child
// is seeded by jumping the parent a fixed number of steps and mixing in a
// per-call counter, so repeated Splits yield distinct streams while the
// parent remains usable. The parent's visible stream is advanced by one
// draw per Split; callers that need bit-exact parent streams should Split
// before consuming the parent. No production code splits streams; the
// rng tests and the parallel package's seeded-run tests do.
func (s *Source) Split() *Source {
	v := s.Next()
	// Mix with a fixed odd constant to move the child away from the
	// parent's orbit neighborhood.
	child := (v*48271 + 11) % Modulus
	if child <= 0 {
		child += Modulus - 1
	}
	return New(child)
}
