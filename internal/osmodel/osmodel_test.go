package osmodel

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/dvm-sim/dvm/internal/addr"
	"github.com/dvm-sim/dvm/internal/pagetable"
)

const testMem = 256 << 20

func newProc(t *testing.T, pol Policy) (*System, *Process) {
	t.Helper()
	sys, err := NewSystem(testMem)
	if err != nil {
		t.Fatal(err)
	}
	return sys, sys.NewProcess(pol)
}

func TestIdentityMmap(t *testing.T) {
	_, p := newProc(t, Policy{IdentityMapHeap: true})
	r, ident, err := p.Mmap(1<<20, addr.ReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	if !ident {
		t.Fatal("expected identity mapping")
	}
	// The defining property: VA == PA for every address in the range.
	for off := uint64(0); off < r.Size; off += addr.PageSize4K {
		va := r.Start + addr.VA(off)
		pa, err := p.Touch(va, addr.Read)
		if err != nil {
			t.Fatal(err)
		}
		if uint64(pa) != uint64(va) {
			t.Fatalf("VA %#x backed by PA %#x, want identity", uint64(va), uint64(pa))
		}
	}
	if p.Stats().IdentityBytes != 1<<20 {
		t.Errorf("IdentityBytes = %d", p.Stats().IdentityBytes)
	}
}

func TestDemandPagingWithoutPolicy(t *testing.T) {
	_, p := newProc(t, Policy{})
	r, ident, err := p.Mmap(64<<10, addr.ReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	if ident {
		t.Fatal("identity mapping without policy")
	}
	if r.Start < mmapTopVA-addr.VA(1<<36) {
		t.Errorf("demand mapping at %#x, expected high mmap area", uint64(r.Start))
	}
	// Pages materialize on first touch.
	v := p.FindVMA(r.Start)
	if v.Pages() != 0 {
		t.Errorf("pages before touch = %d", v.Pages())
	}
	pa1, err := p.Touch(r.Start, addr.Write)
	if err != nil {
		t.Fatal(err)
	}
	if v.Pages() != 1 {
		t.Errorf("pages after touch = %d", v.Pages())
	}
	// Stable across repeated touches.
	pa2, _ := p.Touch(r.Start+64, addr.Read)
	if pa2 != pa1+64 {
		t.Errorf("retouch moved page: %#x vs %#x", uint64(pa2), uint64(pa1))
	}
}

func TestIdentityFallbackWhenFragmented(t *testing.T) {
	sys, p := newProc(t, Policy{IdentityMapHeap: true})
	// Exhaust contiguity: claim the three largest free blocks so only a
	// 16 MB block remains.
	for _, size := range []uint64{128 << 20, 64 << 20, 32 << 20} {
		if _, ident, err := p.Mmap(size, addr.ReadWrite); err != nil || !ident {
			t.Fatalf("setup alloc %d failed: %v ident=%v", size, err, ident)
		}
	}
	if sys.Memory().LargestFreeBlock() != 16<<20 {
		t.Fatalf("largest free block = %d, want 16 MB", sys.Memory().LargestFreeBlock())
	}
	// A 32 MB request cannot be identity mapped.
	r, ident, err := p.Mmap(32<<20, addr.ReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	if ident {
		t.Fatal("identity mapping should have failed")
	}
	if p.Stats().IdentityFailures != 1 {
		t.Errorf("IdentityFailures = %d", p.Stats().IdentityFailures)
	}
	// Demand paging still works, until memory truly runs out.
	if err := p.TouchRange(addr.VRange{Start: r.Start, Size: 1 << 20}, addr.Write); err != nil {
		t.Fatalf("demand paging failed: %v", err)
	}
}

func TestMunmapFreesMemory(t *testing.T) {
	sys, p := newProc(t, Policy{IdentityMapHeap: true})
	before := sys.Memory().FreeBytes()
	r, _, err := p.Mmap(8<<20, addr.ReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Memory().FreeBytes() != before-(8<<20) {
		t.Errorf("eager allocation not charged")
	}
	if err := p.Munmap(r); err != nil {
		t.Fatal(err)
	}
	if sys.Memory().FreeBytes() != before {
		t.Errorf("free bytes = %d, want %d", sys.Memory().FreeBytes(), before)
	}
	if err := p.Munmap(r); err == nil {
		t.Error("double unmap accepted")
	}
}

func TestExitReclaimsEverything(t *testing.T) {
	// Tearing a loaded program with touched heaps down, by unmapping
	// every mapping, returns all of its memory, identity and
	// demand-paged alike.
	sys, p := newProc(t, Policy{IdentityMapHeap: true, IdentityMapAll: true})
	base := sys.Memory().FreeBytes()
	if _, err := p.LoadProgram(Program{CodeBytes: 1 << 20, DataBytes: 1 << 20, BSSBytes: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		r, _, err := p.Mmap(uint64(1+i)<<16, addr.ReadWrite)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.TouchRange(r, addr.Write); err != nil {
			t.Fatal(err)
		}
	}
	if err := munmapAll(p); err != nil {
		t.Fatal(err)
	}
	if got := sys.Memory().FreeBytes(); got != base {
		t.Errorf("leaked %d bytes", base-got)
	}
}

// munmapAll unmaps every mapping of p.
func munmapAll(p *Process) error {
	for len(p.VMAs()) > 0 {
		if err := p.Munmap(p.VMAs()[0].R); err != nil {
			return err
		}
	}
	return nil
}

func TestPermissionEnforcement(t *testing.T) {
	_, p := newProc(t, Policy{IdentityMapHeap: true})
	r, _, err := p.Mmap(1<<20, addr.ReadOnly)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Touch(r.Start, addr.Read); err != nil {
		t.Errorf("read denied: %v", err)
	}
	if _, err := p.Touch(r.Start, addr.Write); err == nil {
		t.Error("write to read-only allowed")
	}
	if _, err := p.Touch(0xdead0000, addr.Read); err == nil {
		t.Error("access to unmapped VA allowed")
	}
	if err := p.Mprotect(r, addr.ReadWrite); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Touch(r.Start, addr.Write); err != nil {
		t.Errorf("write after mprotect denied: %v", err)
	}
}

func TestLoadProgramIdentityAll(t *testing.T) {
	_, p := newProc(t, Policy{IdentityMapHeap: true, IdentityMapAll: true})
	lay, err := p.LoadProgram(Program{CodeBytes: 1 << 20, DataBytes: 512 << 10, BSSBytes: 256 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if !lay.CodeIdentity || !lay.StackIdentity {
		t.Errorf("segments not identity mapped: %+v", lay)
	}
	if lay.Stack.Size != DefaultStackSize {
		t.Errorf("stack size = %d", lay.Stack.Size)
	}
	// Code is read-execute, data/bss read-write.
	if _, err := p.Touch(lay.Code.Start, addr.Execute); err != nil {
		t.Errorf("execute in code denied: %v", err)
	}
	if _, err := p.Touch(lay.Code.Start, addr.Write); err == nil {
		t.Error("write to code allowed")
	}
	if _, err := p.Touch(lay.Data.Start, addr.Write); err != nil {
		t.Errorf("write to data denied: %v", err)
	}
	if _, err := p.Touch(lay.BSS.Start, addr.Write); err != nil {
		t.Errorf("write to bss denied: %v", err)
	}
	// Segments adjacent (PIE layout).
	if lay.Data.Start != lay.Code.End() || lay.BSS.Start != lay.Data.End() {
		t.Errorf("segments not adjacent: %+v", lay)
	}
}

func TestLoadProgramDemand(t *testing.T) {
	sys, p := newProc(t, Policy{})
	base := sys.Memory().FreeBytes()
	lay, err := p.LoadProgram(Program{CodeBytes: 64 << 10, DataBytes: 4 << 10, BSSBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if lay.CodeIdentity || lay.StackIdentity {
		t.Error("identity mapping without IdentityMapAll")
	}
	if err := munmapAll(p); err != nil {
		t.Fatal(err)
	}
	if sys.Memory().FreeBytes() != base {
		t.Error("program memory leaked")
	}
}

func TestBuildCanonicalTable(t *testing.T) {
	_, p := newProc(t, Policy{IdentityMapHeap: true})
	r, _, err := p.Mmap(4<<20, addr.ReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := p.BuildCanonicalTable(true)
	if err != nil {
		t.Fatal(err)
	}
	res := tbl.Walk(r.Start + 0x1234)
	if res.Outcome != pagetable.WalkPE {
		t.Errorf("expected PE walk for identity heap, got %v", res.Outcome)
	}
	if res.PA != addr.PA(r.Start)+0x1234 {
		t.Errorf("PA = %#x", uint64(res.PA))
	}
	// Without PEs: regular leaves, identity.
	tbl2, err := p.BuildCanonicalTable(false)
	if err != nil {
		t.Fatal(err)
	}
	res = tbl2.Walk(r.Start)
	if res.Outcome != pagetable.WalkLeaf || !res.Identity {
		t.Errorf("standard table walk: %+v", res)
	}
}

func TestBuildCanonicalTableDemandPages(t *testing.T) {
	_, p := newProc(t, Policy{})
	r, _, err := p.Mmap(1<<20, addr.ReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.TouchRange(addr.VRange{Start: r.Start, Size: 8 * addr.PageSize4K}, addr.Write); err != nil {
		t.Fatal(err)
	}
	tbl, err := p.BuildCanonicalTable(true)
	if err != nil {
		t.Fatal(err)
	}
	// Touched page: mapped to its real frame, not identity.
	wantPA, _ := p.Translate(r.Start)
	pa, _, ok := tbl.Lookup(r.Start)
	if !ok || pa != wantPA {
		t.Errorf("lookup = %#x ok=%v, want %#x", uint64(pa), ok, uint64(wantPA))
	}
	// Untouched page: unmapped.
	if _, _, ok := tbl.Lookup(r.Start + addr.VA(100*addr.PageSize4K)); ok {
		t.Error("untouched page mapped")
	}
}

func TestBuildHugeTable(t *testing.T) {
	_, p := newProc(t, Policy{IdentityMapHeap: true})
	r, _, err := p.Mmap(5<<20, addr.ReadWrite) // not 2M-multiple
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := p.BuildHugeTable(addr.PageSize2M)
	if err != nil {
		t.Fatal(err)
	}
	res := tbl.Walk(r.Start + addr.VA(r.Size) - 1)
	if res.Outcome != pagetable.WalkLeaf || res.MapSize != addr.PageSize2M {
		t.Errorf("huge walk: %+v", res)
	}
	if _, err := p.BuildHugeTable(addr.PageSize4K); err == nil {
		t.Error("4K huge table accepted")
	}
	if _, err := p.BuildHugeTable(addr.PageSize1G); err != nil {
		t.Errorf("1G table failed: %v", err)
	}
}

func TestForEachIdentityPageAndMappedBytes(t *testing.T) {
	_, p := newProc(t, Policy{IdentityMapHeap: true})
	r1, _, _ := p.Mmap(1<<20, addr.ReadWrite)
	_ = r1
	count := 0
	p.ForEachIdentityPage(func(va addr.VA, perm addr.Perm) {
		if perm != addr.ReadWrite {
			t.Errorf("perm = %v", perm)
		}
		count++
	})
	if count != 256 {
		t.Errorf("identity pages = %d, want 256", count)
	}
	total, ident := p.MappedBytes()
	if total != 1<<20 || ident != 1<<20 {
		t.Errorf("MappedBytes = %d/%d", total, ident)
	}
}

func TestVMASortedAndFindVMA(t *testing.T) {
	_, p := newProc(t, Policy{IdentityMapHeap: true})
	for i := 0; i < 20; i++ {
		if _, _, err := p.Mmap(uint64(1+i%5)<<16, addr.ReadWrite); err != nil {
			t.Fatal(err)
		}
	}
	vmas := p.VMAs()
	for i := 1; i < len(vmas); i++ {
		if vmas[i-1].R.Start >= vmas[i].R.Start {
			t.Fatal("VMAs not sorted")
		}
		if vmas[i-1].R.Overlaps(vmas[i].R) {
			t.Fatal("VMAs overlap")
		}
	}
	for _, v := range vmas {
		if p.FindVMA(v.R.Start) != v || p.FindVMA(v.R.End()-1) != v {
			t.Fatal("FindVMA wrong at bounds")
		}
	}
	if p.FindVMA(1) != nil {
		t.Error("FindVMA(1) found something")
	}
}

// TestIdentityMappingProperty: whatever sequence of mmap/munmap happens,
// every live identity VMA satisfies VA==PA for all pages, VMAs never
// overlap, and the allocator stays consistent.
func TestIdentityMappingProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sys := MustNewSystem(64 << 20)
		p := sys.NewProcess(Policy{IdentityMapHeap: true, Seed: seed})
		var live []addr.VRange
		for step := 0; step < 100; step++ {
			if rng.Intn(3) != 0 || len(live) == 0 {
				size := (rng.Uint64()%512 + 1) * addr.PageSize4K
				r, ident, err := p.Mmap(size, addr.ReadWrite)
				if err != nil {
					continue
				}
				if ident && uint64(r.Start) >= 64<<20 {
					t.Logf("identity VA %#x outside PM", uint64(r.Start))
					return false
				}
				live = append(live, r)
			} else {
				i := rng.Intn(len(live))
				if err := p.Munmap(live[i]); err != nil {
					t.Logf("munmap: %v", err)
					return false
				}
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			}
		}
		// Identity property via Touch on random pages.
		for _, r := range live {
			v := p.FindVMA(r.Start)
			if v == nil {
				return false
			}
			if !v.Identity {
				continue
			}
			off := uint64(rng.Intn(int(r.Size/addr.PageSize4K))) * addr.PageSize4K
			pa, err := p.Touch(r.Start+addr.VA(off), addr.Read)
			if err != nil || uint64(pa) != uint64(r.Start)+off {
				t.Logf("identity violated at %#x: pa=%#x err=%v", uint64(r.Start)+off, uint64(pa), err)
				return false
			}
		}
		if err := munmapAll(p); err != nil {
			t.Logf("munmap: %v", err)
			return false
		}
		// Everything except the kernel reservation is free again.
		return sys.Memory().FreeBytes() == sys.Memory().Size()-KernelReserved && sys.Memory().CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestCanonicalTableMatchesProcess: the built page table and the process's
// Translate agree on every mapped page.
func TestCanonicalTableMatchesProcess(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sys := MustNewSystem(64 << 20)
		p := sys.NewProcess(Policy{IdentityMapHeap: rng.Intn(2) == 0, Seed: seed})
		var rs []addr.VRange
		for i := 0; i < 10; i++ {
			r, _, err := p.Mmap((rng.Uint64()%64+1)*addr.PageSize4K, addr.ReadWrite)
			if err != nil {
				return false
			}
			// Touch a random prefix.
			n := rng.Intn(int(r.Size/addr.PageSize4K)) + 1
			if err := p.TouchRange(addr.VRange{Start: r.Start, Size: uint64(n) * addr.PageSize4K}, addr.Write); err != nil {
				return false
			}
			rs = append(rs, r)
		}
		for _, usePE := range []bool{false, true} {
			tbl, err := p.BuildCanonicalTable(usePE)
			if err != nil {
				return false
			}
			for _, r := range rs {
				for va := r.Start; va < r.End(); va += addr.VA(addr.PageSize4K) {
					wantPA, wantOK := p.Translate(va)
					pa, _, ok := tbl.Lookup(va)
					if ok != wantOK || (ok && pa != wantPA) {
						t.Logf("seed %d usePE %v va %#x: (%#x,%v) want (%#x,%v)",
							seed, usePE, uint64(va), uint64(pa), ok, uint64(wantPA), wantOK)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}
