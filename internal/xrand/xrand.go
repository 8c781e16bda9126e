// Package xrand provides a small, fast, deterministic pseudo-random
// number generator used throughout the simulator. All simulator
// randomness (backoff windows, workload synthesis, tie-breaking) flows
// through this package so that a run is fully reproducible from its
// seed, and so that components can carry independent streams derived
// from a master seed.
package xrand

// Source is a SplitMix64 generator. The zero value is a valid generator
// seeded with 0; use New to derive well-mixed streams.
type Source struct {
	state uint64
}

// New returns a Source seeded with the given value. Distinct seeds give
// statistically independent streams.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// Split derives a new independent Source from s. The derived stream does
// not overlap with s's future output in practice (different mixing
// constants applied to a fresh draw).
func (s *Source) Split() *Source {
	return &Source{state: s.Uint64() ^ 0x9e3779b97f4a7c15}
}

// Uint64 returns the next value in the stream.
func (s *Source) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool {
	return s.Float64() < p
}
