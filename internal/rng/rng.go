// Package rng provides a small, deterministic pseudo-random number
// generation substrate used by every stochastic component in this
// repository (the synthetic census generator, Bayesian posterior sampling,
// noisy mechanisms, and property tests).
//
// The package exists so that experiment outputs are reproducible
// bit-for-bit across Go releases: the standard library's math/rand has
// changed default sources between versions, whereas the xoshiro256++ and
// splitmix64 algorithms implemented here are fixed.
//
// A seeded stream of derived deviates changes only when a sampler's
// algorithm does. That has happened once: NormFloat64 moved from the
// polar method to the ziggurat, and Binomial from BTPE to BTRS. Every
// seeded normal, gamma, Dirichlet, binomial and multinomial stream
// changed with it, and so did the census datasets, dist.Normal samples
// and report intervals built on them. Uint64, Float64, Intn and the
// samplers built only on them (alias tables, Laplace, exponential,
// permutations) did not change.
package rng

import (
	"math"
	"math/bits"
)

// splitmix64 advances the given state and returns the next value of the
// splitmix64 sequence. It is used to seed xoshiro state from a single
// 64-bit seed, as recommended by the xoshiro authors.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// RNG is a xoshiro256++ generator. The zero value is not valid; use New.
type RNG struct {
	s [4]uint64
}

// New returns a generator seeded deterministically from seed.
func New(seed uint64) *RNG {
	var r RNG
	r.seed(seed)
	return &r
}

// NewStream returns a generator for substream `stream` of the given seed.
// Distinct (seed, stream) pairs yield statistically independent sequences,
// so parallel workers can each own stream i of a shared seed and produce
// output that is bit-identical regardless of how work is scheduled. Note
// NewStream(seed, 0) is a different sequence from New(seed).
func NewStream(seed, stream uint64) *RNG {
	var r RNG
	r.SeedStream(seed, stream)
	return &r
}

// SeedStream re-seeds the generator in place to substream `stream` of
// seed, discarding all existing state. It allows a long-lived worker-local generator to be re-pointed
// at per-task substreams without allocating.
func (r *RNG) SeedStream(seed, stream uint64) {
	// Hash the stream id through splitmix64 before mixing it into the
	// seed: a linear combination like seed + stream·C would make adjacent
	// streams share shifted splitmix states (correlated xoshiro init
	// words), whereas the hash decorrelates them nonlinearly.
	h := stream
	r.seed(seed ^ splitmix64(&h))
}

// seed (re)initializes all state from a single 64-bit value.
func (r *RNG) seed(seed uint64) {
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	// Guard against the (astronomically unlikely) all-zero state, which is
	// the one invalid state for xoshiro.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next value of the xoshiro256++ sequence.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[0]+r.s[3], 23) + r.s[0]
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method, unbiased.
	bound := uint64(n)
	threshold := -bound % bound
	for {
		hi, lo := bits.Mul64(r.Uint64(), bound)
		if lo >= threshold {
			return int(hi)
		}
	}
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}

// NormFloat64 returns a standard normal deviate by the 128-strip
// ziggurat of Marsaglia & Tsang (J. Stat. Softw. 5(8), 2000). One
// Uint64 supplies the strip (its low 7 bits), the sign (bit 7) and a
// 53-bit abscissa (the top 53 bits), so the strip index and the value
// share no bits. About 98.8% of calls return after that draw, a
// multiply and a compare; the rest test a wedge under the density or,
// in the base strip, draw from the tail beyond zigR. The tables are in
// ziggurat.go.
//
//df:hotpath
func (r *RNG) NormFloat64() float64 {
	for {
		u := r.Uint64()
		i := u & 0x7f
		j := u >> 11
		x := float64(j) * zigW[i]
		switch {
		case j < zigK[i]:
			// Inside strip i's rectangle: accept at once.
		case i == 0:
			// The base strip's overhang is the tail beyond zigR, drawn
			// by Marsaglia's (1964) exponential rejection.
			for {
				x = -math.Log(1-r.Float64()) / zigR
				y := -math.Log(1 - r.Float64())
				if y+y >= x*x {
					break
				}
			}
			x += zigR
		case zigF[i]+r.Float64()*(zigF[i-1]-zigF[i]) >= math.Exp(-0.5*x*x):
			// Outside the wedge under the density: draw again.
			continue
		}
		// Bit 7 of u becomes the sign bit, without a branch the
		// predictor would miss half the time.
		return math.Float64frombits(math.Float64bits(x) ^ (u&0x80)<<56)
	}
}

// Normal returns a normal deviate with the given mean and standard
// deviation.
func (r *RNG) Normal(mean, stddev float64) float64 {
	return mean + stddev*r.NormFloat64()
}

// Laplace returns a Laplace(mu, b) deviate by inversion.
func (r *RNG) Laplace(mu, b float64) float64 {
	u := r.Float64() - 0.5
	if u < 0 {
		return mu + b*math.Log(1+2*u)
	}
	return mu - b*math.Log(1-2*u)
}

// Gamma returns a Gamma(shape, 1) deviate using the Marsaglia-Tsang
// method, with the standard boost for shape < 1. It panics if shape <= 0.
//
//df:hotpath
func (r *RNG) Gamma(shape float64) float64 {
	if shape <= 0 {
		panic("rng: Gamma with non-positive shape")
	}
	if shape < 1 {
		// Boosting: Gamma(a) = Gamma(a+1) * U^(1/a).
		u := r.Float64()
		for u == 0 {
			u = r.Float64()
		}
		return r.Gamma(shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := r.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// Dirichlet fills dst with a draw from the Dirichlet distribution with the
// given concentration parameters. dst and alpha must have equal nonzero
// length and every alpha must be positive.
//
//df:hotpath
func (r *RNG) Dirichlet(dst, alpha []float64) {
	if len(dst) != len(alpha) || len(alpha) == 0 {
		panic("rng: Dirichlet length mismatch")
	}
	var sum float64
	for i, a := range alpha {
		g := r.Gamma(a)
		dst[i] = g
		sum += g
	}
	if sum == 0 {
		// All gamma draws underflowed; fall back to uniform to keep the
		// result a valid distribution.
		for i := range dst {
			dst[i] = 1 / float64(len(dst))
		}
		return
	}
	for i := range dst {
		dst[i] /= sum
	}
}
