// Package sim provides the deterministic simulation substrate used by the
// whole repository: a virtual clock, resource timelines on which operations
// book time, deterministic random number streams, and a small discrete-event
// engine. All performance measurements in this reproduction are taken in
// virtual time so that every experiment regenerates bit-identically on any
// machine, regardless of its real hardware.
//
// The random draws follow the variate contract (variate.go): Log, Log2, Exp
// and the Box–Muller cosine are transcriptions of what the math package
// computes on an FMA amd64 host, so a draw is the same float64 on every
// architecture and CPU. Streams draws for many generators at once, on an
// AVX-512 kernel where the host has one, lane for lane equal to the scalar
// draws.
package sim

import "math"

// RNG is a deterministic SplitMix64 pseudo random number generator. It is
// intentionally not the standard library generator: each model component owns
// a named stream seeded from the experiment seed, so adding a new consumer of
// randomness never perturbs existing streams.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// NewStream derives an independent child generator from a parent seed and a
// stream name. The same (seed, name) pair always yields the same stream.
func NewStream(seed uint64, name string) *RNG {
	h := seed ^ 0x9e3779b97f4a7c15
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 0xff51afd7ed558ccd
		h ^= h >> 33
	}
	return NewRNG(h)
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Normal returns a normally distributed value with the given mean and
// standard deviation, using the Box-Muller transform on the variate
// contract's Log and cos.
func (r *RNG) Normal(mean, stddev float64) float64 {
	u1 := r.Float64()
	u2 := r.Float64()
	if u1 < 1e-300 {
		u1 = 1e-300
	}
	z := float64(math.Sqrt(float64(-2*Log(u1))) * cos(float64(2*math.Pi*u2)))
	return mean + float64(stddev*z)
}

// LogNormalFactor returns a multiplicative jitter factor with median 1 whose
// log has the given standard deviation sigma. sigma = 0 returns exactly 1.
func (r *RNG) LogNormalFactor(sigma float64) float64 {
	if sigma == 0 {
		return 1
	}
	return Exp(r.Normal(0, sigma))
}

// Range returns a uniform value in [lo, hi).
func (r *RNG) Range(lo, hi float64) float64 {
	return lo + float64((hi-lo)*r.Float64())
}
