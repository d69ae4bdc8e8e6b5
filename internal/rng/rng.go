// Package rng provides a deterministic, splittable random number generator
// and the sampling distributions the synthetic workloads need (uniform,
// normal, gamma, beta, exponential, Poisson). Every experiment in the
// repository derives its randomness from a seeded rng.Source so results are
// reproducible run to run.
//
// The core generator is splitmix64 feeding xoshiro256**, the combination
// recommended by Blackman & Vigna. Split derives an independent stream from a
// parent, which lets each base model / dataset / trace own its own source
// without coordination.
package rng

import "math"

// Source is a deterministic pseudo-random source. It is not safe for
// concurrent use; Split off a child per goroutine instead.
type Source struct {
	s [4]uint64
}

// splitmix64 advances x and returns the next splitmix64 output. It is used
// to seed and to split xoshiro state.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded from seed via splitmix64.
func New(seed uint64) *Source {
	var src Source
	src.Reseed(seed)
	return &src
}

// Reseed resets r in place, allocating nothing, to the stream New(seed)
// starts.
func (r *Source) Reseed(seed uint64) {
	x := seed
	for i := range r.s {
		r.s[i] = splitmix64(&x)
	}
}

// Mix returns the seed of the stream key names under seed: for one seed a
// bijection of key, so distinct keys get distinct, unrelated streams.
func Mix(seed, key uint64) uint64 {
	x := seed ^ key
	return splitmix64(&x)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Source) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Split returns a new Source whose stream is statistically independent of
// the parent's. The parent advances by one step.
func (r *Source) Split() *Source {
	x := r.Uint64()
	return New(splitmix64(&x))
}

// Float64 returns a uniform value in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Uniform returns a uniform value in [lo, hi).
func (r *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Bool returns true with probability p.
func (r *Source) Bool(p float64) bool { return r.Float64() < p }

// Normal returns a draw from N(mean, stddev^2) using the Marsaglia polar
// method.
func (r *Source) Normal(mean, stddev float64) float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return mean + stddev*u*math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Exponential returns a draw from Exp(rate); its mean is 1/rate. It panics
// if rate <= 0.
func (r *Source) Exponential(rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exponential with non-positive rate")
	}
	u := r.Float64()
	//schemble:floateq-ok Float64 returns exactly 0 with probability 2^-53 and log(0) is -Inf; redraw on exact zero
	for u == 0 {
		u = r.Float64()
	}
	return -math.Log(u) / rate
}

// Gamma returns a draw from Gamma(shape, scale) using the Marsaglia-Tsang
// method (with the standard boost for shape < 1). It panics if either
// parameter is non-positive.
func (r *Source) Gamma(shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		panic("rng: Gamma with non-positive parameter")
	}
	if shape < 1 {
		// Gamma(a) = Gamma(a+1) * U^(1/a)
		u := r.Float64()
		//schemble:floateq-ok Float64 returns exactly 0 with probability 2^-53 and pow(0, 1/a) collapses the draw; redraw on exact zero
		for u == 0 {
			u = r.Float64()
		}
		return r.Gamma(shape+1, scale) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := r.Normal(0, 1)
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.Float64()
		if u < 1-0.0331*x*x*x*x {
			return scale * d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return scale * d * v
		}
	}
}

// Beta returns a draw from Beta(a, b) via the gamma ratio.
func (r *Source) Beta(a, b float64) float64 {
	x := r.Gamma(a, 1)
	y := r.Gamma(b, 1)
	//schemble:floateq-ok gamma draws are non-negative; the ratio is 0/0 only when both are exactly 0
	if x+y == 0 {
		return 0.5
	}
	return x / (x + y)
}

// Poisson returns a draw from Poisson(lambda). For small lambda it uses
// Knuth's product method; for large lambda the PTRS-like normal
// approximation with rejection is replaced by summing, which is fine for the
// rates this repository uses (lambda < 1e4 per draw is never needed because
// arrivals are generated via exponential gaps).
func (r *Source) Poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda < 30 {
		l := math.Exp(-lambda)
		k := 0
		p := 1.0
		for {
			p *= r.Float64()
			if p <= l {
				return k
			}
			k++
		}
	}
	// Split large lambda into chunks to keep Knuth's method numerically
	// safe. Sum of independent Poissons is Poisson.
	half := lambda / 2
	return r.Poisson(half) + r.Poisson(lambda-half)
}

// Perm returns a random permutation of [0, n).
func (r *Source) Perm(n int) []int {
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

// Shuffle randomly permutes the first n indices using swap.
func (r *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
