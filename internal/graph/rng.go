package graph

import "math/rand"

// The lags of math/rand's Go 1 generator, an additive lagged Fibonacci
// generator: x[n] = x[n-607] + x[n-273] (mod 2^64).
const (
	rngLen = 607
	rngTap = 273
)

// source is a concrete copy of math/rand's Go 1 generator and of the
// rand.Rand methods the generators call. rand.Rand reaches its source
// through an interface call on every draw, and the generators draw once
// per bit of every edge. The stream equals rand.New(rand.NewSource(seed))
// method for method; Go 1 compatibility freezes that stream.
type source struct {
	tap, feed int
	vec       [rngLen]int64
}

// newSource returns the generator rand.NewSource(seed) starts from. It
// reads the seeded register back rather than copying math/rand's seed
// table: rngLen draws from rand.NewSource(seed) overwrite each register
// slot exactly once with the value drawn, so after storing the draws
// where the generator put them, running the recurrence backwards over
// the same rngLen steps restores the seeded register.
func newSource(seed int64) *source {
	m := rand.NewSource(seed).(rand.Source64)
	s := &source{feed: rngLen - rngTap}
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
func (s *source) back() {
	if s.tap--; s.tap < 0 {
		s.tap += rngLen
	}
	if s.feed--; s.feed < 0 {
		s.feed += rngLen
	}
}

// Int63 is rand.Rand.Int63.
func (s *source) Int63() int64 {
	s.back()
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return x & (1<<63 - 1)
}

// Float64 is rand.Rand.Float64, which redraws the rare value that
// rounds up to 1.
func (s *source) Float64() float64 {
	for {
		if f := float64(s.Int63()) / (1 << 63); f != 1 {
			return f
		}
	}
}

// Float32 is rand.Rand.Float32, which redraws the rare value that
// rounds up to 1.
func (s *source) Float32() float32 {
	for {
		if f := float32(s.Float64()); f != 1 {
			return f
		}
	}
}

// Intn is rand.Rand.Intn for 0 < n < 2^31, which the generators call
// as Intn(5): redraw a 31-bit value above the largest multiple of n.
// math/rand masks a power of two instead; for such n the redraw never
// happens and v % n is that mask, so one path gives its stream for
// every n in range.
func (s *source) Intn(n int) int {
	max := int32(1<<31 - 1 - (1<<31)%uint32(n))
	v := int32(s.Int63() >> 32)
	for v > max {
		v = int32(s.Int63() >> 32)
	}
	return int(v % int32(n))
}
