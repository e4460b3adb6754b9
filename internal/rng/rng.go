// Package rng provides deterministic, splittable pseudo-random number
// streams for the Borg MOEA and its simulation substrates.
//
// Every stochastic component in this repository (operators, problems,
// timing distributions, the discrete-event simulation) draws from its
// own Source so that experiments are reproducible and components can
// be reseeded independently. The generator is xoshiro256++ seeded via
// splitmix64, the combination recommended by Blackman & Vigna.
package rng

import (
	"math"
	"math/bits"
)

// Source is a deterministic pseudo-random number generator. It is not
// safe for concurrent use; split independent streams with Split.
type Source struct {
	s [4]uint64
	// cached second Gaussian from the Box-Muller pair.
	gauss    float64
	hasGauss bool
}

// splitmix64 advances the seed and returns the next output. It is used
// to initialize xoshiro state so that similar seeds yield unrelated
// streams.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded deterministically from seed.
func New(seed uint64) *Source {
	var r Source
	r.Seed(seed)
	return &r
}

// Seed resets the generator state from seed.
func (r *Source) Seed(seed uint64) {
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	r.hasGauss = false
}

// Split derives an independent child stream. The child is a function of
// the parent's current state, and the parent is advanced, so successive
// Split calls return distinct streams.
func (r *Source) Split() *Source {
	return New(r.Uint64() ^ 0xa3ec647659359acd)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Source) Uint64() uint64 {
	s := &r.s
	result := rotl(s[0]+s[3], 23) + s[0]
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) * 0x1p-53
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := bits.Mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// Range returns a uniform float64 in [lo, hi).
func (r *Source) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Norm returns a standard normal deviate via the Box-Muller transform.
func (r *Source) Norm() float64 {
	if r.hasGauss {
		r.hasGauss = false
		return r.gauss
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(s) / s)
	r.gauss = v * f
	r.hasGauss = true
	return u * f
}

// NormMS returns a normal deviate with the given mean and standard
// deviation.
func (r *Source) NormMS(mean, stddev float64) float64 {
	return mean + stddev*r.Norm()
}

// Exp returns an exponential deviate with the given rate (mean 1/rate).
func (r *Source) Exp(rate float64) float64 {
	// 1-Float64() is in (0,1], avoiding log(0).
	return -math.Log(1-r.Float64()) / rate
}

// Gamma returns a gamma deviate with the given shape and scale using
// the Marsaglia-Tsang method (with Ahrens-Dieter boosting for
// shape < 1).
func (r *Source) Gamma(shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		panic("rng: Gamma with non-positive parameter")
	}
	if shape < 1 {
		// Boost: Gamma(a) = Gamma(a+1) * U^(1/a).
		u := r.Float64()
		for u == 0 {
			u = r.Float64()
		}
		return r.Gamma(shape+1, scale) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := r.Norm()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v * scale
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v * scale
		}
	}
}

// Perm fills dst with a uniform random permutation of [0, len(dst)).
func (r *Source) Perm(dst []int) {
	for i := range dst {
		dst[i] = i
	}
	r.Shuffle(len(dst), func(i, j int) { dst[i], dst[j] = dst[j], dst[i] })
}

// Shuffle performs a Fisher-Yates shuffle over n elements using swap.
func (r *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Sample picks k distinct indices from [0, n) without replacement,
// appending them to dst and returning it. It panics if k > n.
func (r *Source) Sample(n, k int, dst []int) []int {
	if k > n {
		panic("rng: Sample with k > n")
	}
	// Floyd's algorithm: O(k) expected work, no O(n) scratch.
	chosen := make(map[int]struct{}, k)
	start := len(dst)
	for j := n - k; j < n; j++ {
		t := r.Intn(j + 1)
		if _, ok := chosen[t]; ok {
			t = j
		}
		chosen[t] = struct{}{}
		dst = append(dst, t)
	}
	// Shuffle the selected tail so order is uniform too.
	tail := dst[start:]
	r.Shuffle(len(tail), func(i, j int) { tail[i], tail[j] = tail[j], tail[i] })
	return dst
}
