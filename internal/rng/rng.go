// Package rng provides a small, fast, deterministic pseudo-random number
// generator for the simulator. Simulations must be exactly reproducible
// from a seed across runs and platforms, and each traffic source needs
// its own independent stream; rng supports both with splitmix64-seeded
// xoshiro-style state.
package rng

// RNG is a deterministic 64-bit PRNG (xorshift64* with splitmix64
// seeding). The zero value is not valid; use New.
type RNG struct {
	state uint64
}

// New returns a generator seeded with seed. Two generators with the same
// seed produce identical streams.
func New(seed uint64) *RNG {
	r := seeded(seed)
	return &r
}

func seeded(seed uint64) RNG {
	r := RNG{state: splitmix64(seed + 0x9e3779b97f4a7c15)}
	if r.state == 0 {
		r.state = 0x9e3779b97f4a7c15
	}
	return r
}

// Split derives an independent generator for stream i (e.g. one per
// traffic source), decorrelated from the parent via splitmix64.
func (r *RNG) Split(i uint64) *RNG {
	s := r.Stream(i)
	return &s
}

// Stream is Split by value, for a generator held inside a longer-lived
// struct rather than allocated on its own.
func (r *RNG) Stream(i uint64) RNG {
	return seeded(splitmix64(r.state ^ (i+1)*0xbf58476d1ce4e5b9))
}

// Derive deterministically mixes a base seed with a stream index,
// producing an independent seed per stream. It is the pure-function form
// of Split for callers that need seeds (not generators), e.g. per-job
// seeds in an experiment matrix.
func Derive(seed, i uint64) uint64 {
	return splitmix64(splitmix64(seed+0x9e3779b97f4a7c15) ^ (i+1)*0xbf58476d1ce4e5b9)
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Uint64 returns the next value in the stream.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545f4914f6cdd1d
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded sampling is overkill here;
	// modulo bias is negligible for the small n used by the simulator
	// (n ≤ number of network nodes), but reject to be exact anyway.
	bound := uint64(n)
	threshold := -bound % bound
	for {
		v := r.Uint64()
		if v >= threshold {
			return int(v % bound)
		}
	}
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}
