package mmu

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/dvm-sim/dvm/internal/addr"
	"github.com/dvm-sim/dvm/internal/obs"
	"github.com/dvm-sim/dvm/internal/pagetable"
)

// TestTLBRegistryInvariant: for random op sequences, the registry
// snapshot must satisfy hits + misses == lookups and agree with the
// accessor views at all times.
func TestTLBRegistryInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tlb := MustNewTLB(TLBConfig{Entries: 8, PageSize: addr.PageSize4K})
		reg := obs.NewRegistry()
		tlb.RegisterMetrics(reg, "mmu.tlb")
		lookups := uint64(0)
		for i := 0; i < 500; i++ {
			va := addr.VA(uint64(rng.Intn(64)) * addr.PageSize4K)
			if rng.Intn(3) == 0 {
				tlb.Insert(va, addr.PA(va), addr.ReadOnly)
			} else {
				tlb.Lookup(va)
				lookups++
			}
			s := reg.Snapshot()
			hits, misses := s.Get("mmu.tlb.hits"), s.Get("mmu.tlb.misses")
			if hits+misses != lookups {
				t.Logf("seed %d step %d: hits %d + misses %d != lookups %d", seed, i, hits, misses, lookups)
				return false
			}
			if hits != tlb.Hits() || misses != tlb.Misses() {
				t.Logf("seed %d step %d: registry disagrees with accessors", seed, i)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestPTECacheRegistryInvariant is the same property for the walker
// caches (PWC/AVC geometry).
func TestPTECacheRegistryInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := MustNewPTECache(PTECacheConfig{CapacityBytes: 1 << 10, BlockBytes: 64, Ways: 4, MinLevel: 1})
		reg := obs.NewRegistry()
		c.RegisterMetrics(reg, "mmu.avc")
		lookups := uint64(0)
		for i := 0; i < 500; i++ {
			pa := addr.PA(uint64(rng.Intn(256)) * 8)
			level := rng.Intn(4) + 1
			if rng.Intn(3) == 0 {
				c.Insert(pa, level)
			} else if c.Caches(level) {
				c.Lookup(pa, level)
				lookups++
			}
			s := reg.Snapshot()
			if s.Get("mmu.avc.hits")+s.Get("mmu.avc.misses") != lookups {
				t.Logf("seed %d step %d: %d + %d != %d", seed, i,
					s.Get("mmu.avc.hits"), s.Get("mmu.avc.misses"), lookups)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestResetPreservesContents pins the Snapshot()/Reset() contract:
// Reset zeroes the statistical counters only — cached entries and LRU
// recency survive, so warm-up exclusion never perturbs replacement.
func TestResetPreservesContents(t *testing.T) {
	tlb := MustNewTLB(TLBConfig{Entries: 4, PageSize: addr.PageSize4K})
	reg := obs.NewRegistry()
	tlb.RegisterMetrics(reg, "mmu.tlb")
	va := addr.VA(addr.PageSize4K * 7)
	tlb.Insert(va, addr.PA(va), addr.ReadWrite)
	if _, _, hit := tlb.Lookup(va); !hit {
		t.Fatal("warm-up lookup missed")
	}
	tlb.Reset()
	if s := reg.Snapshot(); s.Get("mmu.tlb.hits") != 0 || s.Get("mmu.tlb.misses") != 0 {
		t.Fatalf("registry observed stale stats after Reset: %v", s.Counters)
	}
	if _, _, hit := tlb.Lookup(va); !hit {
		t.Fatal("Reset dropped cached contents (contract: stats only)")
	}
	if s := reg.Snapshot(); s.Get("mmu.tlb.hits") != 1 {
		t.Fatalf("post-Reset hit not counted: %v", reg.Snapshot().Counters)
	}

	pc := MustNewPTECache(PTECacheConfig{CapacityBytes: 256, BlockBytes: 64, Ways: 1, MinLevel: 1})
	pc.Insert(0x40, 1)
	pc.Lookup(0x40, 1)
	pc.Reset()
	if pc.Lookups() != 0 {
		t.Fatal("PTECache.Reset left stats")
	}
	if !pc.Lookup(0x40, 1) {
		t.Fatal("PTECache.Reset dropped cached contents")
	}
}

// newDVMPEIOMMU builds an identity-mapped 64 MB address space under
// DVM-PE for the allocation/registry tests.
func newDVMPEIOMMU(t testing.TB) *IOMMU {
	base := uint64(addr.PageSize1G)
	tbl := pagetable.MustNew(pagetable.Config{})
	if err := tbl.MapRange(addr.VRange{Start: addr.VA(base), Size: 64 << 20}, addr.PA(base), addr.ReadWrite, addr.PageSize4K); err != nil {
		t.Fatal(err)
	}
	tbl = compacted(tbl)
	return MustNew(Config{Mode: ModeDVMPE}, tbl, nil)
}

// TestIOMMURegisterMetricsVocabulary pins the counter names the
// registry publishes for a full DVM-PE IOMMU (DESIGN.md §7).
func TestIOMMURegisterMetricsVocabulary(t *testing.T) {
	u := newDVMPEIOMMU(t)
	reg := obs.NewRegistry()
	u.RegisterMetrics(reg)
	base := uint64(addr.PageSize1G)
	var p Plan
	for i := uint64(0); i < 100; i++ {
		u.TranslateInto(addr.VA(base+i*addr.PageSize4K), addr.Read, &p)
	}
	s := reg.Snapshot()
	for _, name := range []string{"iommu.accesses", "iommu.walk.memrefs", "iommu.dav.identity",
		"iommu.dav.fallback", "iommu.preload.squashed", "iommu.faults", "iommu.ctxswitches",
		"mmu.avc.hits", "mmu.avc.misses"} {
		if _, ok := s.Counters[name]; !ok {
			t.Errorf("counter %q not registered", name)
		}
	}
	if s.Get("iommu.accesses") != 100 {
		t.Errorf("iommu.accesses = %d, want 100", s.Get("iommu.accesses"))
	}
	if s.Get("iommu.dav.identity") != 100 {
		t.Errorf("iommu.dav.identity = %d, want 100 (all identity mapped)", s.Get("iommu.dav.identity"))
	}
	if got := u.Counters(); got.Accesses != s.Get("iommu.accesses") {
		t.Errorf("Counters() view %d disagrees with registry %d", got.Accesses, s.Get("iommu.accesses"))
	}
}

// TestTranslateIntoZeroAlloc is the acceptance criterion for the
// pull-based registry: translation with metrics registered and tracing
// attached-but-masked-off performs no allocation.
func TestTranslateIntoZeroAlloc(t *testing.T) {
	u := newDVMPEIOMMU(t)
	reg := obs.NewRegistry()
	u.RegisterMetrics(reg)
	u.SetTracer(obs.NewTracer(16, 0)) // attached, every component masked off
	base := uint64(addr.PageSize1G)
	var p Plan
	var i uint64
	allocs := testing.AllocsPerRun(1000, func() {
		u.TranslateInto(addr.VA(base+(i%16384)*addr.PageSize4K), addr.Read, &p)
		i++
	})
	if allocs != 0 {
		t.Errorf("TranslateInto allocates %.1f objects/op with registry attached, want 0", allocs)
	}
	// The accelerator's per-PE issue path: once each PE's front table
	// exists, recording and replaying spans allocates nothing either.
	const pes = 8
	for pe := 0; pe < pes; pe++ {
		u.TranslatePEInto(pe, addr.VA(base), addr.Read, &p)
	}
	allocs = testing.AllocsPerRun(1000, func() {
		u.TranslatePEInto(int(i%pes), addr.VA(base+(i%16384)*addr.PageSize4K), addr.Read, &p)
		i++
	})
	if allocs != 0 {
		t.Errorf("TranslatePEInto allocates %.1f objects/op with registry attached, want 0", allocs)
	}
	// The walk histogram counts every translation under the mode slug
	// and its sum reconciles with the walk-memref counter, at zero
	// additional allocation (core.CrossCheck enforces the same pair).
	s := reg.Snapshot()
	h, ok := s.Hists["mmu.dvmpe.walk.memrefs"]
	if !ok {
		t.Fatalf("walk histogram not registered; hists = %v", s.Hists)
	}
	if h.Count != s.Get("iommu.accesses") {
		t.Errorf("walk hist count %d != iommu.accesses %d", h.Count, s.Get("iommu.accesses"))
	}
	if h.Sum != s.Get("iommu.walk.memrefs") {
		t.Errorf("walk hist sum %d != iommu.walk.memrefs %d", h.Sum, s.Get("iommu.walk.memrefs"))
	}
}

// BenchmarkIOMMUDVMPEWithRegistry is BenchmarkIOMMUDVMPE plus a live
// registry and masked-off tracer; ReportAllocs makes the zero-alloc
// property visible in CI's benchmark smoke run.
func BenchmarkIOMMUDVMPEWithRegistry(b *testing.B) {
	u := newDVMPEIOMMU(b)
	reg := obs.NewRegistry()
	u.RegisterMetrics(reg)
	u.SetTracer(obs.NewTracer(16, 0))
	base := uint64(addr.PageSize1G)
	rng := rand.New(rand.NewSource(3))
	var p Plan
	// Warm up one-time lazy state so a -benchtime=1x smoke run measures
	// the steady-state (zero-allocation) path.
	for i := 0; i < 64; i++ {
		u.TranslateInto(addr.VA(base+uint64(rng.Intn(64<<20))), addr.Read, &p)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u.TranslateInto(addr.VA(base+uint64(rng.Intn(64<<20))), addr.Read, &p)
	}
}

// TestTracerSeesDAVEvents wires a tracer into the IOMMU and checks the
// DAV fast path emits the documented event sequence.
func TestTracerSeesDAVEvents(t *testing.T) {
	u := newDVMPEIOMMU(t)
	tr := obs.NewTracer(64, obs.MaskAll)
	u.SetTracer(tr)
	base := uint64(addr.PageSize1G)
	var p Plan
	u.TranslateInto(addr.VA(base), addr.Read, &p)
	if p.Fault {
		t.Fatal("unexpected fault")
	}
	var kinds []obs.EventKind
	for _, ev := range tr.Events() {
		if ev.Comp == obs.CompIOMMU {
			kinds = append(kinds, ev.Kind)
		}
	}
	if len(kinds) < 2 || kinds[0] != obs.EvDAVCheck {
		t.Fatalf("IOMMU events = %v, want to start with dav.check", kinds)
	}
	last := kinds[len(kinds)-1]
	if last != obs.EvDAVIdentity {
		t.Fatalf("identity-mapped access ended with %v, want dav.identity", last)
	}
}
