package cpu

import (
	"math"
	"strings"
	"testing"

	"github.com/dvm-sim/dvm/internal/addr"
	"github.com/dvm-sim/dvm/internal/mmu"
	"github.com/dvm-sim/dvm/internal/pagetable"
)

// fastSpec shrinks a workload for unit-test runtimes.
func fastSpec(name string, t *testing.T) WorkloadSpec {
	t.Helper()
	spec, err := WorkloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	spec.Accesses = 600_000
	return spec
}

func TestRunOrdering(t *testing.T) {
	// Figure 10's per-workload ordering: 4K > THP > cDVM overheads.
	for _, name := range []string{"mcf", "xsbench"} {
		spec := fastSpec(name, t)
		r, err := Run(spec, Config{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		o4, oT, oC := r.Overhead[Scheme4K], r.Overhead[SchemeTHP], r.Overhead[SchemeCDVM]
		if !(o4 > oT) {
			t.Errorf("%s: 4K %.3f not worse than THP %.3f", name, o4, oT)
		}
		if !(oT > oC) {
			t.Errorf("%s: THP %.3f not worse than cDVM %.3f", name, oT, oC)
		}
		// Shortened traces amortize cold misses less than the full
		// runs (which land under 5%), so allow a little headroom.
		if oC > 0.08 {
			t.Errorf("%s: cDVM overhead %.3f, paper promises ~5%%", name, oC)
		}
		if o4 < 0.05 {
			t.Errorf("%s: 4K overhead %.3f implausibly low", name, o4)
		}
		if r.BaseCycles <= 0 {
			t.Errorf("%s: BaseCycles %v", name, r.BaseCycles)
		}
	}
}

func TestRunAllWorkloadsDefined(t *testing.T) {
	if len(Workloads) != 5 {
		t.Fatalf("Figure 10 needs 5 workloads, have %d", len(Workloads))
	}
	names := map[string]bool{}
	for _, w := range Workloads {
		names[w.Name] = true
		if w.Footprint == 0 || w.Accesses == 0 || w.CyclesPerAccess == 0 {
			t.Errorf("%s: incomplete spec %+v", w.Name, w)
		}
	}
	for _, want := range []string{"mcf", "bt", "cg", "canneal", "xsbench"} {
		if !names[want] {
			t.Errorf("missing workload %s", want)
		}
	}
}

func TestWorkloadByName(t *testing.T) {
	if _, err := WorkloadByName("nope"); err == nil {
		t.Error("unknown workload accepted")
	}
	w, err := WorkloadByName("canneal")
	if err != nil || w.Source != "PARSEC" {
		t.Errorf("canneal lookup: %+v %v", w, err)
	}
}

func TestSchemeString(t *testing.T) {
	if Scheme4K.String() != "4K" || SchemeTHP.String() != "THP" || SchemeCDVM.String() != "cDVM" {
		t.Error("scheme strings wrong")
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(WorkloadSpec{Name: "empty"}, Config{}); err == nil {
		t.Error("empty spec accepted")
	}
}

func TestTraceGenDeterministicAndBounded(t *testing.T) {
	spec := WorkloadSpec{Name: "x", Footprint: 1 << 20, RandFrac: 0.5, HotFrac: 0.3, HotBytes: 64 << 10, Accesses: 1000, CyclesPerAccess: 4, Seed: 7}
	a := newTraceGen(spec)
	b := newTraceGen(spec)
	a.bind(0x1000000)
	b.bind(0x1000000)
	for i := 0; i < 10000; i++ {
		va, vb := a.next(), b.next()
		if va != vb {
			t.Fatalf("trace not deterministic at %d: %#x vs %#x", i, uint64(va), uint64(vb))
		}
		if va < 0x1000000 || va >= 0x1000000+addr.VA(spec.Footprint) {
			t.Fatalf("address %#x outside footprint", uint64(va))
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.L1TLBEntries != 64 || c.L2TLBEntries != 512 || c.MemRefCycles != 60 {
		t.Errorf("defaults wrong: %+v", c)
	}
}

func TestTHPMissesAtScale(t *testing.T) {
	// xsbench's 5.6 GB footprint exceeds 2M-TLB reach (512 x 2 MB = 1 GB),
	// so even THP must take real misses — the regime the paper measures.
	spec := fastSpec("xsbench", t)
	r, err := Run(spec, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if r.L2MissRate[SchemeTHP] < 0.2 {
		t.Errorf("THP miss rate %.3f, want substantial", r.L2MissRate[SchemeTHP])
	}
	if r.Overhead[SchemeTHP] < 0.05 {
		t.Errorf("THP overhead %.3f, want visible for xsbench", r.Overhead[SchemeTHP])
	}
}

func TestStoreOverlapReducesCDVM(t *testing.T) {
	// Paper §7.1: overlapping the write-allocate fetch with DAV hides
	// store walk latency; cDVM overhead can only shrink.
	spec := fastSpec("xsbench", t)
	base, err := Run(spec, Config{})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := Run(spec, Config{StoreOverlap: true})
	if err != nil {
		t.Fatal(err)
	}
	if opt.Overhead[SchemeCDVM] >= base.Overhead[SchemeCDVM] {
		t.Errorf("store overlap did not reduce cDVM overhead: %.4f vs %.4f",
			opt.Overhead[SchemeCDVM], base.Overhead[SchemeCDVM])
	}
	// Conventional schemes are unaffected (the optimization is cDVM's).
	if opt.Overhead[Scheme4K] != base.Overhead[Scheme4K] {
		t.Errorf("store overlap changed 4K overhead: %.4f vs %.4f",
			opt.Overhead[Scheme4K], base.Overhead[Scheme4K])
	}
}

// simulatePerScheme is the per-scheme loop Run replaced, kept as the
// reference TestRunLockstepMatchesPerScheme checks the lockstep run
// against: one trace generator per scheme, each driving its own TLB
// hierarchy and walker from the start of the trace.
func simulatePerScheme(spec WorkloadSpec, cfg Config, table *pagetable.Table, pageSize uint64, scheme Scheme, heapBase addr.VA) (uint64, float64) {
	l1 := mmu.MustNewTLB(mmu.TLBConfig{Entries: cfg.L1TLBEntries, Ways: cfg.L1TLBWays, PageSize: pageSize})
	l2 := mmu.MustNewTLB(mmu.TLBConfig{Entries: cfg.L2TLBEntries, Ways: cfg.L2TLBWays, PageSize: pageSize})
	var walker *mmu.PTECache
	if scheme == SchemeCDVM {
		walker = mmu.MustNewPTECache(mmu.DefaultAVCConfig())
	} else {
		walker = mmu.MustNewPTECache(mmu.DefaultPWCConfig())
	}

	gen := newTraceGen(spec)
	gen.bind(heapBase)
	storeFrac := spec.StoreFrac
	if storeFrac == 0 {
		storeFrac = 0.3
	}
	var walkCycles uint64
	var walkRes pagetable.WalkResult
	for i := 0; i < spec.Accesses; i++ {
		va := gen.next()
		isStore := gen.rng.Float64() < storeFrac
		if _, _, hit := l1.Lookup(va); hit {
			continue
		}
		if pa, perm, hit := l2.Lookup(va); hit {
			pageBase := addr.VA(addr.AlignDown(uint64(va), pageSize))
			l1.Insert(pageBase, pa-addr.PA(uint64(va)-uint64(pageBase)), perm)
			continue
		}
		table.WalkInto(va, &walkRes)
		var thisWalk uint64
		for _, step := range walkRes.Steps {
			if walker.Caches(step.Level) {
				thisWalk += cfg.ProbeCycles
				if walker.Lookup(step.EntryPA, step.Level) {
					continue
				}
				thisWalk += cfg.MemRefCycles
				walker.Insert(step.EntryPA, step.Level)
			} else {
				thisWalk += cfg.MemRefCycles
			}
		}
		if !(scheme == SchemeCDVM && cfg.StoreOverlap && isStore) {
			walkCycles += thisWalk
		}
		if walkRes.Outcome == pagetable.WalkFault {
			continue
		}
		base := addr.VA(addr.AlignDown(uint64(va), pageSize))
		paBase := walkRes.PA - addr.PA(uint64(va)-uint64(base))
		l2.Insert(base, paBase, walkRes.Perm)
		l1.Insert(base, paBase, walkRes.Perm)
	}
	return walkCycles, l2.MissRate()
}

// TestRunLockstepMatchesPerScheme checks that driving the three schemes
// from one trace in lockstep gives exactly the per-scheme loop's walk
// cycles, miss rates and overheads, for every Figure 10 workload, two
// trace seeds and the store optimization on and off.
func TestRunLockstepMatchesPerScheme(t *testing.T) {
	for _, w := range Workloads {
		for _, seed := range []int64{w.Seed, w.Seed + 1000} {
			spec := w
			spec.Seed = seed
			spec.Accesses = 400_000
			tables, heapBase, err := buildTables(spec)
			if err != nil {
				t.Fatal(err)
			}
			for _, overlap := range []bool{false, true} {
				cfg := Config{StoreOverlap: overlap}
				got, err := Run(spec, cfg)
				if err != nil {
					t.Fatal(err)
				}
				cfg = cfg.withDefaults()
				base := float64(spec.Accesses) * spec.CyclesPerAccess
				for s := Scheme4K; s <= SchemeCDVM; s++ {
					walk, miss := simulatePerScheme(spec, cfg, tables[s], s.pageSize(), s, heapBase)
					if got.WalkCycles[s] != walk || got.L2MissRate[s] != miss || got.Overhead[s] != float64(walk)/base {
						t.Errorf("%s seed %d overlap %v %s: lockstep walk %d miss %v overhead %v, per-scheme walk %d miss %v overhead %v",
							w.Name, seed, overlap, s, got.WalkCycles[s], got.L2MissRate[s], got.Overhead[s], walk, miss, float64(walk)/base)
					}
				}
			}
		}
	}
}

func TestWorkloadSpecValidation(t *testing.T) {
	ok := WorkloadSpec{Name: "ok", Footprint: 1 << 20, RandFrac: 0.5, HotFrac: 0.5, HotBytes: 64 << 10, Accesses: 1000, CyclesPerAccess: 4, Seed: 1}
	for _, tc := range []struct {
		want string // the error names the field
		edit func(*WorkloadSpec)
	}{
		{"footprint", func(s *WorkloadSpec) { s.Footprint = 0 }},
		{"trace", func(s *WorkloadSpec) { s.Accesses = 0 }},
		{"RandFrac", func(s *WorkloadSpec) { s.RandFrac = 1.5 }},
		{"RandFrac", func(s *WorkloadSpec) { s.RandFrac = math.NaN() }},
		{"HotFrac", func(s *WorkloadSpec) { s.HotFrac = -0.1 }},
		{"StoreFrac", func(s *WorkloadSpec) { s.StoreFrac = 2 }},
		{"HotBytes", func(s *WorkloadSpec) { s.HotBytes = 0 }}, // would divide by zero in traceGen.next
		{"HotBytes", func(s *WorkloadSpec) { s.HotBytes = s.Footprint + 1 }},
		{"SeqStride", func(s *WorkloadSpec) { s.SeqStride = s.Footprint + 1 }},
	} {
		spec := ok
		tc.edit(&spec)
		if _, err := Run(spec, Config{}); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Run(%+v) error %v, want one naming %s", spec, err, tc.want)
		}
	}
	// No hot draws are possible without random draws or a hot fraction,
	// so HotBytes is then free.
	for _, spec := range []WorkloadSpec{
		{Name: "seq", Footprint: 1 << 20, HotFrac: 0.5, Accesses: 1, CyclesPerAccess: 4},
		{Name: "cold", Footprint: 1 << 20, RandFrac: 0.5, Accesses: 1, CyclesPerAccess: 4},
	} {
		if err := spec.validate(); err != nil {
			t.Errorf("%s: %v", spec.Name, err)
		}
	}
	if err := ok.validate(); err != nil {
		t.Errorf("base spec: %v", err)
	}
	for _, w := range Workloads {
		if err := w.validate(); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
	}
}

// TestRepeatedPageSkipPricesFaults checks the lockstep's repeated-page
// skip on its fault path: a faulting walk leaves the page out of the
// L1, so the next access to that page must be walked and charged again
// rather than skipped as an L1 hit.
func TestRepeatedPageSkipPricesFaults(t *testing.T) {
	const base = addr.VA(1 << 30)
	tbl := pagetable.MustNew(pagetable.Config{})
	for _, r := range []addr.VRange{{Start: base, Size: 8 << 12}, {Start: base + 16<<12, Size: 8 << 12}} {
		if err := tbl.MapRange(r, addr.PA(r.Start), addr.ReadWrite, addr.PageSize4K); err != nil {
			t.Fatal(err)
		}
	}
	hole, mapped := base+12<<12+0x40, base+2<<12
	cfg := Config{}.withDefaults()

	var walkRes pagetable.WalkResult
	h := newHierarchy(cfg, Scheme4K, tbl)
	if !h.access(mapped, false, &walkRes) {
		t.Fatal("mapped page not resident after its walk")
	}
	if h.access(hole, false, &walkRes) {
		t.Fatal("hole reported resident after a faulting walk")
	}
	first := h.walkCycles
	if h.access(hole+8, false, &walkRes) {
		t.Fatal("hole reported resident after a second faulting walk")
	}
	if h.walkCycles == first {
		t.Fatal("second walk of the hole charged nothing")
	}

	// The same accesses driven as Run drives them, through lockstep,
	// must charge exactly what unskipped access calls charge.
	ls := lockstep{hs: []hierarchy{newHierarchy(cfg, Scheme4K, tbl)}}
	for _, va := range []addr.VA{mapped, hole, hole + 8} {
		ls.access(va, false)
	}
	if got := ls.hs[0].walkCycles; got != h.walkCycles {
		t.Errorf("lockstep charged %d walk cycles, unskipped accesses %d", got, h.walkCycles)
	}
	if ls.resident {
		t.Error("lockstep marks a faulting page resident")
	}
	// A repeat of a resident page is skipped: no lookup reaches the L1.
	ls.access(mapped, false)
	lookups := ls.hs[0].l1.Lookups()
	ls.access(mapped+64, true)
	if got := ls.hs[0].l1.Lookups(); got != lookups {
		t.Errorf("repeat of a resident page probed the L1 (%d -> %d lookups)", lookups, got)
	}
}
