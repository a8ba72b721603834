package prng

import (
	"math/rand"
	"testing"
)

// TestSourceMatchesMathRand: the concrete source gives math/rand's
// stream for every method the simulator calls, interleaved, from many
// seeds: zero, negative, and the multiples of 2^31-1 that math/rand
// maps to its fixed fallback seed.
func TestSourceMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, 7, 42, -1, -42, 1<<31 - 1, 2 * (1<<31 - 1), 1 << 40, -1 << 63, 1<<63 - 1}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		seeds = append(seeds, r.Int63()-r.Int63())
	}
	// Powers of two take math/rand's mask path, and Intn's redraw path
	// here; Int63n takes the mask path for them in both.
	ns := []int{1, 2, 5, 7, 64, 1000, 1<<31 - 1}
	ns63 := []int64{1, 2, 3, 5, 1 << 28, 1<<28 + 1, 1000, 1 << 40, 3 << 61, 1<<63 - 1}
	for _, seed := range seeds {
		got, want := New(seed), rand.New(rand.NewSource(seed))
		// 3000 draws pass the register length (607) several times.
		for i := 0; i < 3000; i++ {
			switch i % 6 {
			case 0:
				if g, w := got.Float64(), want.Float64(); g != w {
					t.Fatalf("seed %d draw %d: Float64 %v, math/rand %v", seed, i, g, w)
				}
			case 1:
				if g, w := got.Float32(), want.Float32(); g != w {
					t.Fatalf("seed %d draw %d: Float32 %v, math/rand %v", seed, i, g, w)
				}
			case 2:
				n := ns[i/6%len(ns)]
				if g, w := got.Intn(n), want.Intn(n); g != w {
					t.Fatalf("seed %d draw %d: Intn(%d) %d, math/rand %d", seed, i, n, g, w)
				}
			case 3:
				if g, w := got.Int63(), want.Int63(); g != w {
					t.Fatalf("seed %d draw %d: Int63 %d, math/rand %d", seed, i, g, w)
				}
			case 4:
				if g, w := got.Uint64(), want.Uint64(); g != w {
					t.Fatalf("seed %d draw %d: Uint64 %d, math/rand %d", seed, i, g, w)
				}
			case 5:
				n := ns63[i/6%len(ns63)]
				if g, w := got.Int63n(n), want.Int63n(n); g != w {
					t.Fatalf("seed %d draw %d: Int63n(%d) %d, math/rand %d", seed, i, n, g, w)
				}
			}
		}
	}
}

// TestInt63nRejectsNonPositive: Int63n panics on n <= 0, as math/rand's
// does.
func TestInt63nRejectsNonPositive(t *testing.T) {
	for _, n := range []int64{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Int63n(%d) did not panic", n)
				}
			}()
			New(1).Int63n(n)
		}()
	}
}

// plant sets s's register so its next Int63 draws are draws, which
// must be fewer than rngTap so no planted slot feeds a later one.
func plant(s *Source, draws ...int64) {
	for _, x := range draws {
		s.back()
		s.vec[s.feed] = x - s.vec[s.tap]
	}
	for range draws {
		if s.tap++; s.tap == rngLen {
			s.tap = 0
		}
		if s.feed++; s.feed == rngLen {
			s.feed = 0
		}
	}
}

// TestSourceRedrawsOne: Float64 and Float32 redraw a value that rounds
// up to 1, as math/rand's do. Int63 values this close to 2^63 are too
// rare to meet in a stream, so they are planted: 2^63-1 (1.0 as a
// float64), then 2^63-2^38 (1.0 as a float32 only), then a small value.
func TestSourceRedrawsOne(t *testing.T) {
	s := New(1)
	plant(s, 1<<63-1, 1<<63-1<<38, 12345<<10)
	if f := s.Float32(); f != float32(float64(12345<<10)/(1<<63)) {
		t.Fatalf("Float32 = %v, want the third draw", f)
	}
}
