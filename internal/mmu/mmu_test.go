package mmu

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/dvm-sim/dvm/internal/addr"
	"github.com/dvm-sim/dvm/internal/pagetable"
)

func TestTLBValidation(t *testing.T) {
	if _, err := NewTLB(TLBConfig{Entries: 0, PageSize: addr.PageSize4K}); err == nil {
		t.Error("zero entries accepted")
	}
	if _, err := NewTLB(TLBConfig{Entries: 8, PageSize: 1234}); err == nil {
		t.Error("bad page size accepted")
	}
	if _, err := NewTLB(TLBConfig{Entries: 8, Ways: 3, PageSize: addr.PageSize4K}); err == nil {
		t.Error("non-dividing ways accepted")
	}
}

func TestTLBHitMiss(t *testing.T) {
	tlb := MustNewTLB(TLBConfig{Entries: 4, PageSize: addr.PageSize4K})
	if _, _, hit := tlb.Lookup(0x1000); hit {
		t.Error("empty TLB hit")
	}
	tlb.Insert(0x1000, 0x9000, addr.ReadWrite)
	pa, perm, hit := tlb.Lookup(0x1234)
	if !hit || pa != 0x9234 || perm != addr.ReadWrite {
		t.Errorf("lookup = %#x %v %v", uint64(pa), perm, hit)
	}
	if tlb.Hits() != 1 || tlb.Misses() != 1 {
		t.Errorf("hits/misses = %d/%d", tlb.Hits(), tlb.Misses())
	}
	if tlb.MissRate() != 0.5 {
		t.Errorf("MissRate = %v", tlb.MissRate())
	}
}

func TestTLBLRUEvictionFA(t *testing.T) {
	tlb := MustNewTLB(TLBConfig{Entries: 2, PageSize: addr.PageSize4K})
	tlb.Insert(0x1000, 0x1000, addr.ReadOnly)
	tlb.Insert(0x2000, 0x2000, addr.ReadOnly)
	// Touch 0x1000 so 0x2000 becomes LRU.
	if _, _, hit := tlb.Lookup(0x1000); !hit {
		t.Fatal("expected hit")
	}
	tlb.Insert(0x3000, 0x3000, addr.ReadOnly)
	if _, _, hit := tlb.Lookup(0x2000); hit {
		t.Error("LRU entry not evicted")
	}
	if _, _, hit := tlb.Lookup(0x1000); !hit {
		t.Error("MRU entry evicted")
	}
}

func TestTLBSetAssociative(t *testing.T) {
	// 4 entries, 2 ways -> 2 sets. VPNs 0,2,4 map to set 0.
	tlb := MustNewTLB(TLBConfig{Entries: 4, Ways: 2, PageSize: addr.PageSize4K})
	tlb.Insert(0x0000, 0x0000, addr.ReadOnly)
	tlb.Insert(0x2000, 0x2000, addr.ReadOnly)
	tlb.Insert(0x4000, 0x4000, addr.ReadOnly) // evicts VPN 0 (LRU in set 0)
	if _, _, hit := tlb.Lookup(0x0000); hit {
		t.Error("conflict victim still present")
	}
	if _, _, hit := tlb.Lookup(0x2000); !hit {
		t.Error("set-mate wrongly evicted")
	}
	// Odd VPN in set 1 unaffected.
	tlb.Insert(0x1000, 0x1000, addr.ReadOnly)
	if _, _, hit := tlb.Lookup(0x1000); !hit {
		t.Error("set 1 entry missing")
	}
}

func TestTLBHugePages(t *testing.T) {
	tlb := MustNewTLB(TLBConfig{Entries: 4, PageSize: addr.PageSize2M})
	tlb.Insert(addr.VA(addr.PageSize2M), addr.PA(5*addr.PageSize2M), addr.ReadWrite)
	pa, _, hit := tlb.Lookup(addr.VA(addr.PageSize2M) + 0x12345)
	if !hit || pa != addr.PA(5*addr.PageSize2M)+0x12345 {
		t.Errorf("2M lookup: %#x %v", uint64(pa), hit)
	}
}

func TestTLBInvalidate(t *testing.T) {
	tlb := MustNewTLB(TLBConfig{Entries: 4, PageSize: addr.PageSize4K})
	tlb.Insert(0x1000, 0x1000, addr.ReadOnly)
	tlb.Invalidate()
	if _, _, hit := tlb.Lookup(0x1000); hit {
		t.Error("entry survived invalidate")
	}
}

func TestTLBUpdateInPlace(t *testing.T) {
	tlb := MustNewTLB(TLBConfig{Entries: 4, PageSize: addr.PageSize4K})
	tlb.Insert(0x1000, 0x1000, addr.ReadOnly)
	tlb.Insert(0x1000, 0x8000, addr.ReadWrite)
	pa, perm, hit := tlb.Lookup(0x1000)
	if !hit || pa != 0x8000 || perm != addr.ReadWrite {
		t.Errorf("update lost: %#x %v", uint64(pa), perm)
	}
}

func TestPTECacheGeometry(t *testing.T) {
	c := MustNewPTECache(DefaultAVCConfig())
	cfg := c.Config()
	if cfg.CapacityBytes/cfg.BlockBytes != 16 {
		t.Errorf("AVC should be 16 blocks, got %d", cfg.CapacityBytes/cfg.BlockBytes)
	}
	if _, err := NewPTECache(PTECacheConfig{CapacityBytes: 100, BlockBytes: 64, Ways: 4, MinLevel: 1}); err == nil {
		t.Error("non-multiple capacity accepted")
	}
	if _, err := NewPTECache(PTECacheConfig{MinLevel: 0, CapacityBytes: 1024, BlockBytes: 64, Ways: 4}); err == nil {
		t.Error("MinLevel 0 accepted")
	}
}

func TestPWCDoesNotCacheL1(t *testing.T) {
	pwc := MustNewPTECache(DefaultPWCConfig())
	pwc.Insert(0x1000, 1)
	if pwc.Lookup(0x1000, 1) {
		t.Error("PWC cached an L1 line")
	}
	pwc.Insert(0x1000, 2)
	if !pwc.Lookup(0x1000, 2) {
		t.Error("PWC missed an inserted L2 line")
	}
}

func TestAVCCachesAllLevels(t *testing.T) {
	avc := MustNewPTECache(DefaultAVCConfig())
	for level := 1; level <= 4; level++ {
		pa := addr.PA(level * 0x1000)
		avc.Insert(pa, level)
		if !avc.Lookup(pa, level) {
			t.Errorf("AVC missed level-%d line", level)
		}
	}
}

func TestPTECacheSameLineSharing(t *testing.T) {
	// Entries within one 64 B line share a block.
	avc := MustNewPTECache(DefaultAVCConfig())
	avc.Insert(0x1000, 2)
	if !avc.Lookup(0x1008, 2) {
		t.Error("same-line entry missed")
	}
	if avc.Lookup(0x1040, 2) {
		t.Error("next line wrongly hit")
	}
}

func TestPTECacheLRU(t *testing.T) {
	// A single-set (fully associative) instance makes eviction order
	// observable regardless of the hashed set index.
	avc := MustNewPTECache(PTECacheConfig{CapacityBytes: 4 * 64, BlockBytes: 64, Ways: 4, MinLevel: 1})
	lineAddr := func(i int) addr.PA { return addr.PA(i * 64) }
	for i := 0; i < 4; i++ {
		avc.Insert(lineAddr(i), 2)
	}
	for i := 0; i < 4; i++ {
		if !avc.Lookup(lineAddr(i), 2) {
			t.Fatalf("line %d missing before eviction", i)
		}
	}
	avc.Insert(lineAddr(4), 2) // evicts LRU = line 0 (oldest lookup)
	if avc.Lookup(lineAddr(0), 2) {
		t.Error("LRU line not evicted")
	}
	if !avc.Lookup(lineAddr(4), 2) {
		t.Error("new line missing")
	}
}

func TestPermBitmap(t *testing.T) {
	bm := NewPermBitmap()
	bm.SetRange(addr.VRange{Start: 0x100000, Size: 4 * addr.PageSize4K}, addr.ReadWrite)
	perm, line := bm.Lookup(0x100000)
	if perm != addr.ReadWrite {
		t.Errorf("perm = %v", perm)
	}
	perm2, line2 := bm.Lookup(0x100FFF)
	if perm2 != addr.ReadWrite || line2 != line {
		t.Errorf("same page must share line: %v %#x vs %#x", perm2, uint64(line2), uint64(line))
	}
	if p, _ := bm.Lookup(0x200000); p != addr.NoPerm {
		t.Errorf("unset page perm = %v", p)
	}
	if bm.Entries() != 4 {
		t.Errorf("Entries = %d", bm.Entries())
	}
	bm.Set(0x100000, addr.NoPerm)
	if bm.Entries() != 3 {
		t.Errorf("Entries after clear = %d", bm.Entries())
	}
	// Line addresses: 256 pages per line.
	_, lineA := bm.Lookup(0)
	_, lineB := bm.Lookup(addr.VA(255 * addr.PageSize4K))
	_, lineC := bm.Lookup(addr.VA(256 * addr.PageSize4K))
	if lineA != lineB || lineA == lineC {
		t.Errorf("line granularity wrong: %#x %#x %#x", uint64(lineA), uint64(lineB), uint64(lineC))
	}
}

// compacted returns tbl.Compacted(), panicking on an error: the tests
// compact only tables they built whole.
func compacted(tbl *pagetable.Table) *pagetable.Table {
	c, err := tbl.Compacted()
	if err != nil {
		panic(err)
	}
	return c
}

// buildIdentityTable maps [base, base+size) identity with the given page
// size and returns the table.
func buildIdentityTable(t *testing.T, base, size, pageSize uint64, compact bool) *pagetable.Table {
	t.Helper()
	tbl := pagetable.MustNew(pagetable.Config{})
	if err := tbl.MapRange(addr.VRange{Start: addr.VA(base), Size: size}, addr.PA(base), addr.ReadWrite, pageSize); err != nil {
		t.Fatal(err)
	}
	if compact {
		tbl = compacted(tbl)
	}
	return tbl
}

func TestIOMMUIdeal(t *testing.T) {
	u := MustNew(Config{Mode: ModeIdeal}, nil, nil)
	p := u.Translate(0x123456, addr.Read)
	if p.Fault || p.PA != 0x123456 || p.ProbeCycles != 0 || len(p.MemRefs) != 0 {
		t.Errorf("ideal plan: %+v", p)
	}
}

func TestIOMMUConv4K(t *testing.T) {
	base := uint64(addr.PageSize1G)
	tbl := buildIdentityTable(t, base, 8<<20, addr.PageSize4K, false)
	u := MustNew(Config{Mode: ModeConv4K}, tbl, nil)

	// First access: TLB miss, full walk. L1 line is never PWC-cached, so
	// at least one memory reference.
	p := u.Translate(addr.VA(base), addr.Read)
	if p.Fault {
		t.Fatal("unexpected fault")
	}
	if p.PA != addr.PA(base) {
		t.Errorf("PA = %#x", uint64(p.PA))
	}
	if len(p.MemRefs) < 1 {
		t.Errorf("cold walk should reference memory, MemRefs = %d", len(p.MemRefs))
	}
	// Second access to the same page: TLB hit, no walk.
	p = u.Translate(addr.VA(base+64), addr.Read)
	if len(p.MemRefs) != 0 || p.ProbeCycles != 1 {
		t.Errorf("TLB hit plan: %+v", p)
	}
	// Same 2 MB region, different page: TLB miss, PWC covers L2-L4, but
	// the L1 line still costs one memory reference.
	p = u.Translate(addr.VA(base+4<<20), addr.Read) // different L1 table
	p = u.Translate(addr.VA(base+4<<20+uint64(addr.PageSize4K)), addr.Read)
	if len(p.MemRefs) != 1 {
		t.Errorf("warm 4K walk MemRefs = %d, want exactly 1 (the L1 PTE)", len(p.MemRefs))
	}
}

func TestIOMMUConv2M(t *testing.T) {
	base := uint64(addr.PageSize1G)
	tbl := buildIdentityTable(t, base, 64<<20, addr.PageSize2M, false)
	u := MustNew(Config{Mode: ModeConv2M}, tbl, nil)
	p := u.Translate(addr.VA(base+3<<20), addr.Read)
	if p.Fault || p.PA != addr.PA(base+3<<20) {
		t.Fatalf("plan: %+v", p)
	}
	// Warm: TLB hit within same 2M page.
	p = u.Translate(addr.VA(base+3<<20+999), addr.Read)
	if len(p.MemRefs) != 0 {
		t.Errorf("2M TLB hit still walked: %+v", p)
	}
	// A different 2M page, walk fully PWC-resident: zero memrefs.
	u.Translate(addr.VA(base+5<<20), addr.Read)
	p = u.Translate(addr.VA(base+7<<20), addr.Read)
	if len(p.MemRefs) != 0 {
		t.Errorf("warm 2M walk MemRefs = %d, want 0 (all levels PWC-cacheable)", len(p.MemRefs))
	}
}

func TestIOMMUDVMPE(t *testing.T) {
	base := uint64(addr.PageSize1G)
	tbl := buildIdentityTable(t, base, 8<<20, addr.PageSize4K, true)
	u := MustNew(Config{Mode: ModeDVMPE}, tbl, nil)
	p := u.Translate(addr.VA(base+12345), addr.Read)
	if p.Fault || p.PA != addr.PA(base+12345) {
		t.Fatalf("plan: %+v", p)
	}
	if p.OverlapData {
		t.Error("DVM-PE (without +) must not preload")
	}
	// Warm access: walk serviced entirely from the AVC.
	p = u.Translate(addr.VA(base+2<<20), addr.Read)
	p = u.Translate(addr.VA(base+2<<20+777), addr.Read)
	if len(p.MemRefs) != 0 {
		t.Errorf("warm AVC walk MemRefs = %d, want 0", len(p.MemRefs))
	}
	if got := u.Counters().DAVIdentity; got != 3 {
		t.Errorf("DAVIdentity = %d, want 3", got)
	}
}

func TestIOMMUDVMPEPlusPreload(t *testing.T) {
	base := uint64(addr.PageSize1G)
	tbl := buildIdentityTable(t, base, 4<<20, addr.PageSize4K, true)
	// Add a non-identity page (demand-paged fallback).
	nonIdentVA := addr.VA(base + 512<<20)
	if err := tbl.Map(nonIdentVA, addr.PA(0x12340000), addr.ReadWrite, addr.PageSize4K); err != nil {
		t.Fatal(err)
	}
	u := MustNew(Config{Mode: ModeDVMPEPlus}, tbl, nil)

	p := u.Translate(addr.VA(base), addr.Read)
	if !p.OverlapData || p.SquashedPreload {
		t.Errorf("identity read should preload: %+v", p)
	}
	p = u.Translate(addr.VA(base), addr.Write)
	if p.OverlapData {
		t.Error("writes must not preload")
	}
	p = u.Translate(nonIdentVA, addr.Read)
	if p.OverlapData || !p.SquashedPreload {
		t.Errorf("non-identity read should squash: %+v", p)
	}
	if p.PA != addr.PA(0x12340000) {
		t.Errorf("fallback PA = %#x", uint64(p.PA))
	}
	if u.Counters().SquashedPreloads != 1 {
		t.Errorf("SquashedPreloads = %d", u.Counters().SquashedPreloads)
	}
}

func TestIOMMUDVMBM(t *testing.T) {
	base := uint64(addr.PageSize1G)
	tbl := buildIdentityTable(t, base, 4<<20, addr.PageSize4K, false)
	bm := NewPermBitmap()
	bm.SetRange(addr.VRange{Start: addr.VA(base), Size: 4 << 20}, addr.ReadWrite)
	// One demand-paged page outside the bitmap.
	nonIdentVA := addr.VA(base + 512<<20)
	if err := tbl.Map(nonIdentVA, addr.PA(0x5550000), addr.ReadWrite, addr.PageSize4K); err != nil {
		t.Fatal(err)
	}
	u := MustNew(Config{Mode: ModeDVMBM}, tbl, bm)

	// Cold: one memory reference for the bitmap line.
	p := u.Translate(addr.VA(base), addr.Read)
	if p.Fault || p.PA != addr.PA(base) {
		t.Fatalf("plan: %+v", p)
	}
	if len(p.MemRefs) != 1 {
		t.Errorf("cold bitmap access MemRefs = %d, want 1", len(p.MemRefs))
	}
	// Warm: same page cached in the BM cache; zero memrefs, one probe.
	p = u.Translate(addr.VA(base+64), addr.Read)
	if len(p.MemRefs) != 0 || p.ProbeCycles != 1 {
		t.Errorf("warm bitmap plan: %+v", p)
	}
	// A different page misses the page-granular BM cache even though it
	// shares the bitmap line — the paper's key AVC-vs-BM contrast.
	p = u.Translate(addr.VA(base+4096), addr.Read)
	if len(p.MemRefs) != 1 {
		t.Errorf("new page should miss the BM cache: %+v", p)
	}
	// Non-identity page: bitmap 00 -> fallback translation through TLB+walk.
	p = u.Translate(nonIdentVA, addr.Read)
	if p.PA != addr.PA(0x5550000) {
		t.Errorf("fallback PA = %#x", uint64(p.PA))
	}
	if u.Counters().FallbackTranslations != 1 {
		t.Errorf("FallbackTranslations = %d", u.Counters().FallbackTranslations)
	}
}

func TestIOMMUPermissionFault(t *testing.T) {
	base := uint64(addr.PageSize1G)
	tbl := pagetable.MustNew(pagetable.Config{})
	if err := tbl.MapRange(addr.VRange{Start: addr.VA(base), Size: 2 << 20}, addr.PA(base), addr.ReadOnly, addr.PageSize4K); err != nil {
		t.Fatal(err)
	}
	tbl = compacted(tbl)
	u := MustNew(Config{Mode: ModeDVMPE}, tbl, nil)
	p := u.Translate(addr.VA(base), addr.Write)
	if !p.Fault {
		t.Error("write to read-only must fault")
	}
	p = u.Translate(addr.VA(base), addr.Read)
	if p.Fault {
		t.Error("read of read-only must not fault")
	}
	p = u.Translate(addr.VA(base+1<<30), addr.Read)
	if !p.Fault {
		t.Error("unmapped access must fault")
	}
	if u.Counters().Faults != 2 {
		t.Errorf("Faults = %d, want 2", u.Counters().Faults)
	}
}

func TestIOMMUModeValidation(t *testing.T) {
	if _, err := New(Config{Mode: ModeDVMBM}, pagetable.MustNew(pagetable.Config{}), nil); err == nil {
		t.Error("DVM-BM without bitmap accepted")
	}
	if _, err := New(Config{Mode: ModeConv4K}, nil, nil); err == nil {
		t.Error("conventional mode without table accepted")
	}
	if _, err := New(Config{Mode: Mode(99)}, nil, nil); err == nil {
		t.Error("unknown mode accepted")
	}
}

func TestModeStrings(t *testing.T) {
	want := map[Mode]string{
		ModeIdeal: "Ideal", ModeConv4K: "4K,TLB+PWC", ModeConv2M: "2M,TLB+PWC",
		ModeConv1G: "1G,TLB+PWC", ModeDVMBM: "DVM-BM", ModeDVMPE: "DVM-PE", ModeDVMPEPlus: "DVM-PE+",
	}
	for m, s := range want {
		if m.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(m), m.String(), s)
		}
	}
	if ModeConv2M.PageSize() != addr.PageSize2M || ModeDVMPE.PageSize() != addr.PageSize4K {
		t.Error("PageSize mapping wrong")
	}
	if !ModeDVMPE.UsesPE() || ModeConv4K.UsesPE() {
		t.Error("UsesPE mapping wrong")
	}
}

// TestIOMMUAgreesWithTable: for random identity + non-identity layouts,
// every mode must produce the same PA as a direct table lookup (protection
// and translation must never disagree with the OS view).
func TestIOMMUAgreesWithTable(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tbl := pagetable.MustNew(pagetable.Config{})
		bm := NewPermBitmap()
		base := uint64(addr.PageSize1G)
		// Identity region.
		n := rng.Intn(200) + 50
		size := uint64(n) * addr.PageSize4K
		if err := tbl.MapRange(addr.VRange{Start: addr.VA(base), Size: size}, addr.PA(base), addr.ReadWrite, addr.PageSize4K); err != nil {
			return false
		}
		bm.SetRange(addr.VRange{Start: addr.VA(base), Size: size}, addr.ReadWrite)
		// Non-identity pages.
		for i := 0; i < 10; i++ {
			va := addr.VA(base + 1<<30 + uint64(i)*addr.PageSize4K)
			pa := addr.PA(1<<35 + uint64(rng.Intn(1<<20))*addr.PageSize4K)
			if err := tbl.Map(va, pa, addr.ReadWrite, addr.PageSize4K); err != nil {
				return false
			}
		}
		tbl = compacted(tbl)
		for _, mode := range []Mode{ModeDVMBM, ModeDVMPE, ModeDVMPEPlus} {
			var u *IOMMU
			if mode == ModeDVMBM {
				u = MustNew(Config{Mode: mode}, tbl, bm)
			} else {
				u = MustNew(Config{Mode: mode}, tbl, nil)
			}
			for i := 0; i < 100; i++ {
				var va addr.VA
				if rng.Intn(2) == 0 {
					va = addr.VA(base + uint64(rng.Intn(n))*addr.PageSize4K + uint64(rng.Intn(4096)))
				} else {
					va = addr.VA(base + 1<<30 + uint64(rng.Intn(10))*addr.PageSize4K + uint64(rng.Intn(4096)))
				}
				wantPA, _, ok := tbl.Lookup(va)
				p := u.Translate(va, addr.Read)
				if !ok != p.Fault {
					t.Logf("seed %d mode %v va %#x: fault=%v want mapped=%v", seed, mode, uint64(va), p.Fault, ok)
					return false
				}
				if ok && p.PA != wantPA {
					t.Logf("seed %d mode %v va %#x: PA=%#x want %#x", seed, mode, uint64(va), uint64(p.PA), uint64(wantPA))
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// BenchmarkIOMMUDVMPE prices one DVM-PE translation over a 64 MB
// identity region: uniformly random addresses with no issuing PE, then
// eight PEs each streaming its own 8 MB slice at 64 B steps, issued
// with their PE index (the accelerator's path, front tables on) and
// without it (every access walks).
func BenchmarkIOMMUDVMPE(b *testing.B) {
	const size = 64 << 20
	base := uint64(addr.PageSize1G)
	tbl := pagetable.MustNew(pagetable.Config{})
	if err := tbl.MapRange(addr.VRange{Start: addr.VA(base), Size: size}, addr.PA(base), addr.ReadWrite, addr.PageSize4K); err != nil {
		b.Fatal(err)
	}
	tbl = compacted(tbl)
	b.Run("random", func(b *testing.B) {
		u := MustNew(Config{Mode: ModeDVMPE}, tbl, nil)
		rng := rand.New(rand.NewSource(3))
		var p Plan
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			u.TranslateInto(addr.VA(base+uint64(rng.Intn(size))), addr.Read, &p)
		}
	})
	const pes, slice = 8, size / 8
	stream := func(i int) (int, addr.VA) {
		pe := i % pes
		return pe, addr.VA(base + uint64(pe)*slice + uint64(i/pes*64)%slice)
	}
	b.Run("streams-pe", func(b *testing.B) {
		u := MustNew(Config{Mode: ModeDVMPE}, tbl, nil)
		var p Plan
		for i := 0; i < pes; i++ {
			pe, va := stream(i)
			u.TranslatePEInto(pe, va, addr.Read, &p)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pe, va := stream(i)
			u.TranslatePEInto(pe, va, addr.Read, &p)
		}
	})
	b.Run("streams-nope", func(b *testing.B) {
		u := MustNew(Config{Mode: ModeDVMPE}, tbl, nil)
		var p Plan
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, va := stream(i)
			u.TranslateInto(va, addr.Read, &p)
		}
	})
}

func BenchmarkIOMMUConv4K(b *testing.B) {
	base := uint64(addr.PageSize1G)
	tbl := pagetable.MustNew(pagetable.Config{})
	if err := tbl.MapRange(addr.VRange{Start: addr.VA(base), Size: 64 << 20}, addr.PA(base), addr.ReadWrite, addr.PageSize4K); err != nil {
		b.Fatal(err)
	}
	u := MustNew(Config{Mode: ModeConv4K}, tbl, nil)
	rng := rand.New(rand.NewSource(3))
	var p Plan
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u.TranslateInto(addr.VA(base+uint64(rng.Intn(64<<20))), addr.Read, &p)
	}
}

func TestSwitchContextIsolation(t *testing.T) {
	// Two processes: after a context switch the old process's mappings
	// must be unreachable, including through stale TLB state.
	baseA, baseB := uint64(addr.PageSize1G), uint64(2*addr.PageSize1G)
	tblA := buildIdentityTable(t, baseA, 2<<20, addr.PageSize4K, false)
	tblB := buildIdentityTable(t, baseB, 2<<20, addr.PageSize4K, false)
	u := MustNew(Config{Mode: ModeConv4K}, tblA, nil)

	if p := u.Translate(addr.VA(baseA), addr.Read); p.Fault {
		t.Fatal("A's mapping should work under A's context")
	}
	if err := u.SwitchContext(State{Table: tblB}); err != nil {
		t.Fatal(err)
	}
	// A's address must fault now, even though it was TLB-resident.
	if p := u.Translate(addr.VA(baseA), addr.Read); !p.Fault {
		t.Error("A's mapping leaked across the context switch")
	}
	if p := u.Translate(addr.VA(baseB), addr.Read); p.Fault {
		t.Error("B's mapping unusable after switch")
	}
	if u.Counters().ContextSwitches != 1 {
		t.Errorf("ContextSwitches = %d", u.Counters().ContextSwitches)
	}
}

func TestSwitchContextPEModesKeepAVC(t *testing.T) {
	// The AVC is physically indexed: switching contexts must not
	// invalidate it. The two tables' nodes start at the same simulated
	// PA, so B's walks may hit lines A filled; what this checks is that
	// each table's permissions still decide the outcome. Disjoint node
	// regions, and a check that B misses on A's lines, are ROADMAP
	// item 6.
	baseA, baseB := uint64(addr.PageSize1G), uint64(2*addr.PageSize1G)
	tblA := buildIdentityTable(t, baseA, 2<<20, addr.PageSize4K, true)
	tblB := buildIdentityTable(t, baseB, 2<<20, addr.PageSize4K, true)
	u := MustNew(Config{Mode: ModeDVMPE}, tblA, nil)
	u.Translate(addr.VA(baseA), addr.Read) // warm AVC with A's lines
	if err := u.SwitchContext(State{Table: tblB}); err != nil {
		t.Fatal(err)
	}
	if p := u.Translate(addr.VA(baseA), addr.Read); !p.Fault {
		t.Error("A's identity region validated under B's table")
	}
	if p := u.Translate(addr.VA(baseB), addr.Read); p.Fault {
		t.Error("B's region rejected")
	}
	// Switch back: A's AVC lines may still be warm (physically tagged) —
	// the walk must succeed either way.
	if err := u.SwitchContext(State{Table: tblA}); err != nil {
		t.Fatal(err)
	}
	if p := u.Translate(addr.VA(baseA), addr.Read); p.Fault {
		t.Error("A's region rejected after switching back")
	}
}

func TestSwitchContextValidation(t *testing.T) {
	tbl := buildIdentityTable(t, uint64(addr.PageSize1G), 1<<20, addr.PageSize4K, false)
	u := MustNew(Config{Mode: ModeConv4K}, tbl, nil)
	if err := u.SwitchContext(State{}); err == nil {
		t.Error("nil table accepted")
	}
	bmU := MustNew(Config{Mode: ModeDVMBM}, tbl, NewPermBitmap())
	if err := bmU.SwitchContext(State{Table: tbl}); err == nil {
		t.Error("DVM-BM switch without bitmap accepted")
	}
}
