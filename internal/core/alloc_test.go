package core

import (
	"runtime"
	"testing"

	"github.com/dvm-sim/dvm/internal/graph"
)

// runAllocBytes returns the bytes allocated by a warm Prepared.Run of
// w: one warm-up run under ModeDVMPE builds the cached machine and
// table and fills the engine buffer pools, then a second ModeDVMPE run
// and a ModeIdeal run (a mode whose state needs no table) are measured.
func runAllocBytes(t *testing.T, w Workload) (bytes uint64, v int) {
	t.Helper()
	p, err := Prepare(w)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ProfileTiny.SystemConfig()
	if _, err := p.Run(ModeDVMPE, cfg); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, m := range []Mode{ModeDVMPE, ModeIdeal} {
		if _, err := p.Run(m, cfg); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, p.G.V
}

// TestWarmRunAllocIndependentOfV pins the engine buffer pools end to
// end: once a workload has run, further runs take every V-sized engine
// buffer (properties, temporaries, frontiers, touched list, activation
// lists) from the pools and hand them back, so what a warm run
// allocates is the per-run hardware (TLBs, caches, registry) and does
// not grow with the graph. FR and S24 differ 16× in V; the larger
// graph's two runs must stay under a third of one 8-byte word per
// vertex, and allocate at most half a byte per vertex more than the
// smaller graph's (before the pools took every buffer, they allocated
// 48-67 B per vertex). Both a frontier-driven program (BFS: next
// frontier and activation arena) and an all-active one (PageRank: the
// all-vertices frontier) are covered.
//
// Not parallel: TotalAlloc counts every goroutine's allocations.
func TestWarmRunAllocIndependentOfV(t *testing.T) {
	fr, _ := graph.DatasetByName("FR")
	s24, _ := graph.DatasetByName("S24")
	for _, alg := range []string{"BFS", "PageRank"} {
		w := Workload{Algorithm: alg, Scale: ProfileTiny.Scale, PageRankIters: 1, Seed: 1}
		w.Dataset = fr
		small, vSmall := runAllocBytes(t, w)
		w.Dataset = s24
		large, vLarge := runAllocBytes(t, w)
		t.Logf("%s: V=%d allocates %d B, V=%d allocates %d B", alg, vSmall, small, vLarge, large)
		if vLarge < 4*vSmall {
			t.Fatalf("%s: V %d vs %d: the graphs must differ at least 4× in V", alg, vLarge, vSmall)
		}
		if bound := uint64(vLarge) * 8 / 3; large > bound {
			t.Errorf("%s: two warm runs at V=%d allocate %d B, want under %d (V×8/3 B)", alg, vLarge, large, bound)
		}
		if large > small+uint64(vLarge)/2 {
			t.Errorf("%s: warm runs allocate %d B at V=%d but %d B at V=%d: allocation grows with V",
				alg, large, vLarge, small, vSmall)
		}
	}
}
