// Package prng is the simulator's one random-number generator: a
// concrete copy of math/rand's Go 1 generator and of the rand.Rand
// methods the simulator calls. rand.Rand reaches its source through an
// interface call on every draw, and the graph generators draw once per
// bit of every edge, the Figure 10 traces two to four times per access.
// The stream equals rand.New(rand.NewSource(seed)) method for method; Go
// 1 compatibility freezes that stream, so every pinned graph, trace and
// golden keeps its bytes.
package prng

import "math/rand"

// The lags of math/rand's Go 1 generator, an additive lagged Fibonacci
// generator: x[n] = x[n-607] + x[n-273] (mod 2^64).
const (
	rngLen = 607
	rngTap = 273
)

// Source is the generator; its methods are rand.Rand's of the same name.
type Source struct {
	tap, feed int
	vec       [rngLen]int64
}

// New returns the generator rand.NewSource(seed) starts from. It reads
// the seeded register back rather than copying math/rand's seed table:
// rngLen draws from rand.NewSource(seed) overwrite each register slot
// exactly once with the value drawn, so after storing the draws where
// the generator put them, running the recurrence backwards over the same
// rngLen steps restores the seeded register.
func New(seed int64) *Source {
	m := rand.NewSource(seed).(rand.Source64)
	s := &Source{feed: rngLen - rngTap}
	for i := 0; i < rngLen; i++ {
		s.back()
		s.vec[s.feed] = int64(m.Uint64())
	}
	// Both indices made a full turn and stand where the last step used
	// them; undo the steps from the last to the first.
	for i := 0; i < rngLen; i++ {
		s.vec[s.feed] -= s.vec[s.tap]
		if s.tap++; s.tap == rngLen {
			s.tap = 0
		}
		if s.feed++; s.feed == rngLen {
			s.feed = 0
		}
	}
	return s
}

// back steps both register indices back by one, as each draw does.
func (s *Source) back() {
	if s.tap--; s.tap < 0 {
		s.tap += rngLen
	}
	if s.feed--; s.feed < 0 {
		s.feed += rngLen
	}
}

// Uint64 is rand.Rand.Uint64: the generator's whole 64-bit word.
func (s *Source) Uint64() uint64 {
	s.back()
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 is rand.Rand.Int63: the word without its top bit.
func (s *Source) Int63() int64 {
	return int64(s.Uint64() & (1<<63 - 1))
}

// Float64 is rand.Rand.Float64, which redraws the rare value that
// rounds up to 1.
func (s *Source) Float64() float64 {
	for {
		if f := float64(s.Int63()) / (1 << 63); f != 1 {
			return f
		}
	}
}

// Float32 is rand.Rand.Float32, which redraws the rare value that
// rounds up to 1.
func (s *Source) Float32() float32 {
	for {
		if f := float32(s.Float64()); f != 1 {
			return f
		}
	}
}

// Intn is rand.Rand.Intn for 0 < n < 2^31, which the graph generators
// call as Intn(5): redraw a 31-bit value above the largest multiple of
// n. math/rand masks a power of two instead; for such n the redraw
// never happens and v % n is that mask, so one path gives its stream
// for every n in range.
func (s *Source) Intn(n int) int {
	max := int32(1<<31 - 1 - (1<<31)%uint32(n))
	v := int32(s.Int63() >> 32)
	for v > max {
		v = int32(s.Int63() >> 32)
	}
	return int(v % int32(n))
}

// Int63n is rand.Rand.Int63n: a mask for a power of two, else a redraw
// of a value above the largest multiple of n. It panics if n <= 0.
func (s *Source) Int63n(n int64) int64 {
	if n <= 0 {
		panic("prng: invalid argument to Int63n")
	}
	if n&(n-1) == 0 {
		return s.Int63() & (n - 1)
	}
	max := int64(1<<63 - 1 - (1<<63)%uint64(n))
	v := s.Int63()
	for v > max {
		v = s.Int63()
	}
	return v % n
}
