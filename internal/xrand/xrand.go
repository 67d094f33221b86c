// Package xrand provides a tiny deterministic pseudo-random generator used
// by every randomized component of the reproduction (dead-node selection,
// locality hot sets, the random replication baseline, and the advanced
// model's proportional children-list choice).
//
// The generator is SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): a single
// 64-bit state, passes BigCrush, and — unlike math/rand's source — its
// output sequence is fixed by this file alone, so experiment seeds recorded
// in EXPERIMENTS.md reproduce bit-for-bit on any Go release.
package xrand

import "math"

// Rand is a SplitMix64 generator. The zero value is a valid generator
// seeded with 0; prefer New to make seeds explicit at call sites.
type Rand struct {
	state uint64
}

// New returns a generator with the given seed. Distinct seeds yield
// independent-looking streams.
func New(seed uint64) *Rand { return &Rand{state: seed} }

// Uint64 returns the next 64 pseudo-random bits.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded sampling with rejection; the
	// bias of plain modulo would be invisible at our n but is cheap to
	// remove.
	un := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul64(v, un)
		if lo >= un || lo >= (-un)%un {
			return int(hi)
		}
	}
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.ShuffleInts(p)
	return p
}

// ShuffleInts permutes p in place (Fisher–Yates).
func (r *Rand) ShuffleInts(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool { return r.Float64() < p }

// Exp returns an exponentially distributed value with the given rate
// (mean 1/rate): the interarrival time of a Poisson process.
func (r *Rand) Exp(rate float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -math.Log(u) / rate
}

// Fork derives an independent generator from r's stream, so components can
// be handed private streams without coupling their consumption rates.
func (r *Rand) Fork() *Rand { return New(r.Uint64()) }

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	aLo, aHi := a&mask32, a>>32
	bLo, bHi := b&mask32, b>>32
	t := aHi*bLo + (aLo*bLo)>>32
	w1 := t & mask32
	w2 := t >> 32
	w1 += aLo * bHi
	hi = aHi*bHi + w2 + w1>>32
	lo = a * b
	return hi, lo
}
