package graph

import (
	"math"
	"math/rand"
	"testing"

	"github.com/dvm-sim/dvm/internal/prng"
)

// rmatEdgeReference is the switch-based quadrant descent the generator
// used before the branch-free one: one Float64 per bit, most
// significant bit first, and a four-way choice on the running sums.
func rmatEdgeReference(rng *rand.Rand, cfg RMATConfig) (uint32, uint32) {
	var src, dst uint32
	for bit := cfg.Scale - 1; bit >= 0; bit-- {
		r := rng.Float64()
		switch {
		case r < cfg.A:
			// top-left: neither bit set
		case r < cfg.A+cfg.B:
			dst |= 1 << uint(bit)
		case r < cfg.A+cfg.B+cfg.C:
			src |= 1 << uint(bit)
		default:
			src |= 1 << uint(bit)
			dst |= 1 << uint(bit)
		}
	}
	return src, dst
}

// checkDescentMatchesReference draws n edges from the branch-free
// descent and from the reference on two generators seeded alike. The
// (src, dst) streams must be equal, and so must the next draw after
// them, so the descent consumes exactly the reference's draws.
func checkDescentMatchesReference(t *testing.T, cfg RMATConfig, n int) {
	t.Helper()
	if err := cfg.validate(); err != nil {
		t.Fatalf("invalid config %+v: %v", cfg, err)
	}
	got := prng.New(cfg.Seed)
	want := rand.New(rand.NewSource(cfg.Seed))
	for i := 0; i < n; i++ {
		gs, gd := rmatEdge(got, cfg)
		ws, wd := rmatEdgeReference(want, cfg)
		if gs != ws || gd != wd {
			t.Fatalf("%+v: edge %d = (%d, %d), reference (%d, %d)", cfg, i, gs, gd, ws, wd)
		}
	}
	if g, w := got.Int63(), want.Int63(); g != w {
		t.Fatalf("%+v: next draw after %d edges = %d, reference %d", cfg, n, g, w)
	}
}

// TestRMATEdgeMatchesReference: the branch-free descent picks the
// reference's quadrant for every draw, over graph500's split, the
// dataset scales, and skews that put thresholds at their extremes
// (B = 0 or C = 0 makes two thresholds equal; a large A leaves D tiny).
func TestRMATEdgeMatchesReference(t *testing.T) {
	splits := [][3]float64{
		{0.57, 0.19, 0.19},
		{0.25, 0.25, 0.25},
		{0.45, 0.15, 0.15},
		{0.9, 0, 0},
		{0.5, 0, 0.3},
		{0.5, 0.3, 0},
		{1e-9, 0.5, 0.4999},
		{0.999, 0.0005, 0.0004},
	}
	for _, s := range splits {
		for _, scale := range []int{1, 4, 11, 17, 30} {
			for _, seed := range []int64{0, 7, 42, -3} {
				cfg := RMATConfig{Scale: scale, EdgeFactor: 1, A: s[0], B: s[1], C: s[2], Seed: seed}
				checkDescentMatchesReference(t, cfg, 2000)
			}
		}
	}
}

// listSource is a rand.Source that returns a fixed list of Int63 draws.
type listSource []int64

func (l *listSource) Int63() int64 {
	x := (*l)[0]
	*l = (*l)[1:]
	return x
}

func (l *listSource) Seed(int64) {}

// TestRMATEdgeThresholdDraws: a draw equal to a threshold, or the
// nearest float either side of it, lands where the reference puts it.
// Random draws almost never hit a threshold exactly, so the draws are
// fed to the descent step directly and to the reference as a planted
// source.
func TestRMATEdgeThresholdDraws(t *testing.T) {
	for _, s := range [][3]float64{{0.57, 0.19, 0.19}, {0.5, 0, 0.3}, {0.5, 0.3, 0}} {
		// One bit per draw: three draws around each of three thresholds.
		cfg := RMATConfig{Scale: 9, A: s[0], B: s[1], C: s[2]}
		a, ab := cfg.A, cfg.A+cfg.B
		var draws []int64
		var gs, gd uint32
		for _, th := range []float64{s[0], s[0] + s[1], s[0] + s[1] + s[2]} {
			for _, r := range []float64{math.Nextafter(th, 0), th, math.Nextafter(th, 1)} {
				// Doubles in [0.5, 1) are multiples of 2^-53, so
				// r*2^63 is an integer Int63 draw that Float64 maps
				// back to r exactly.
				x := int64(r * (1 << 63))
				draws = append(draws, x)
				bs, bd := quadrant(float64(x)/(1<<63), a, ab, ab+cfg.C)
				gs, gd = gs<<1|bs, gd<<1|bd
			}
		}
		ls := listSource(draws)
		ws, wd := rmatEdgeReference(rand.New(&ls), cfg)
		if gs != ws || gd != wd {
			t.Errorf("%v: edge (%b, %b), reference (%b, %b)", s, gs, gd, ws, wd)
		}
	}
}

// FuzzRMATEdge: for any valid (A, B, C, scale, seed) the branch-free
// descent matches the reference edge for edge and draw for draw.
func FuzzRMATEdge(f *testing.F) {
	f.Add(0.57, 0.19, 0.19, 14, int64(42))
	f.Add(0.25, 0.25, 0.25, 1, int64(7))
	f.Add(0.9, 0.0, 0.0, 30, int64(-1))
	f.Add(0.5, 0.0, 0.3, 9, int64(3))
	f.Fuzz(func(t *testing.T, a, b, c float64, scale int, seed int64) {
		cfg := RMATConfig{Scale: scale, EdgeFactor: 1, A: a, B: b, C: c, Seed: seed}
		if cfg.validate() != nil {
			t.Skip()
		}
		checkDescentMatchesReference(t, cfg, 256)
	})
}
