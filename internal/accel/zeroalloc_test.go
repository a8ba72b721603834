package accel

import (
	"testing"

	"github.com/dvm-sim/dvm/internal/mmu"
)

// TestRunIterationZeroAllocSteadyState extends the IOMMU's
// TestTranslateIntoZeroAlloc pinning to the whole engine hot path: after
// one warm-up iteration has sized the pooled scheduler state, stream
// buffers and scratch slices, a steady-state iteration (scatter + apply,
// every access priced through the IOMMU and memory system) must allocate
// nothing.
//
// The engine issues every access with its PE index, so in the PE modes
// the IOMMU's per-PE front tables are on the pinned path: they grow in
// the warm-up iteration and then record and replay without allocating.
func TestRunIterationZeroAllocSteadyState(t *testing.T) {
	g := testGraph(t)
	for _, mode := range []mmu.Mode{mmu.ModeDVMPE, mmu.ModeDVMPEPlus} {
		// PageRank is AllActive: the frontier repeats, so every
		// iteration is shaped identically — the steady state the pools
		// are built for.
		e := buildEngine(t, mode, g, PageRank(50))
		e.Step() // warm-up iteration: pools grow to steady capacity
		e.Step()
		allocs := testing.AllocsPerRun(10, func() {
			e.Step() // scatter
			e.Step() // apply
		})
		if allocs != 0 {
			t.Errorf("%v: steady-state iteration allocates %.1f objects/op, want 0", mode, allocs)
		}
	}
}

// TestRunIterationZeroAllocConv4K repeats the pin for the conventional
// walker (deepest translation path: TLB miss → PWC → multi-level walk).
func TestRunIterationZeroAllocConv4K(t *testing.T) {
	g := testGraph(t)
	e := buildEngine(t, mmu.ModeConv4K, g, PageRank(50))
	e.Step()
	e.Step()
	allocs := testing.AllocsPerRun(10, func() {
		e.Step()
		e.Step()
	})
	if allocs != 0 {
		t.Errorf("steady-state iteration allocates %.1f objects/op, want 0", allocs)
	}
}
