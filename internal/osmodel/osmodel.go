// Package osmodel implements the operating-system side of DVM: the paper's
// Linux 4.10 modifications (Section 4.3) recreated as a user-space model.
//
// The core mechanism is Identity Mapping with eager contiguous allocation
// (Figure 7 of the paper): on every heap allocation the OS first obtains a
// physically contiguous region from the buddy allocator, then places the
// virtual mapping at the virtual address equal to the physical address
// (VA==PA). If either step fails the allocation transparently falls back to
// conventional demand paging, preserving the VM abstraction.
//
// The package also models the flexible address space (segments may live
// anywhere, as identity mapping dictates) and the construction of the
// page tables the simulated IOMMU/MMU walks — including compacted tables
// with Permission Entries, and the DVM-BM permission bitmap view. A
// process's layout is built first and its tables are built from the
// final layout; nothing changes a built table.
package osmodel

import (
	"fmt"
	"sort"

	"github.com/dvm-sim/dvm/internal/addr"
	"github.com/dvm-sim/dvm/internal/chaos"
	"github.com/dvm-sim/dvm/internal/phys"
	"github.com/dvm-sim/dvm/internal/prng"
)

// KernelReserved is the physical memory reserved below the buddy-managed
// region for firmware and the kernel image, as on a real machine.
const KernelReserved = 16 << 20

// DefaultStackSize is the eagerly allocated stack (paper §7.2: "we eagerly
// allocate an 8MB stack for all threads").
const DefaultStackSize = 8 << 20

// mmapTopVA is where the demand-paged mmap area starts (grows downward),
// mirroring the upper end of a Linux user address space.
const mmapTopVA = addr.VA(0x7f00_0000_0000)

// minUserVA is the lowest VA usable by user mappings (guard against null).
const minUserVA = addr.VA(64 << 10)

// IdentityGranule is the size multiple identity-mapped allocations are
// rounded to: 128 KB, the region granularity of an L2 Permission Entry
// (2 MB / 16 fields). Keeping every identity allocation field-aligned and
// field-sized preserves permission contiguity, so whole 2 MB regions fold
// into PEs (paper §4.1.1: gaps are "handled gracefully, if aligned
// suitably"). Allocations smaller than the granule are expected to come
// from a pooling allocator (Malloc), matching the paper's
// malloc-over-mmap design (§4.3.2).
const IdentityGranule = 128 << 10

// IdentityGranuleLarge is the rounding granule for very large identity
// allocations: 64 MB, the field granularity of an L3 Permission Entry
// (1 GB / 16). Rounding a multi-GB allocation to 64 MB (<= a few percent
// overhead above IdentityGranuleLargeMin) lets whole 1 GB table entries
// fold into L3 PEs, keeping the page table to a handful of lines — the
// regime where the paper's 1 KB AVC services every walk.
const IdentityGranuleLarge = 64 << 20

// IdentityGranuleLargeMin is the allocation size at which the large
// granule applies (the rounding waste stays below ~12%).
const IdentityGranuleLargeMin = 512 << 20

// identityGranuleFor picks the rounding granule for an identity
// allocation.
func identityGranuleFor(size uint64) uint64 {
	if size >= IdentityGranuleLargeMin {
		return IdentityGranuleLarge
	}
	return IdentityGranule
}

// SegmentKind labels a virtual memory area.
type SegmentKind uint8

// Segment kinds.
const (
	SegHeap SegmentKind = iota
	SegCode
	SegData
	SegBSS
	SegStack
)

// String implements fmt.Stringer.
func (k SegmentKind) String() string {
	switch k {
	case SegHeap:
		return "heap"
	case SegCode:
		return "code"
	case SegData:
		return "data"
	case SegBSS:
		return "bss"
	case SegStack:
		return "stack"
	default:
		return fmt.Sprintf("SegmentKind(%d)", uint8(k))
	}
}

// Policy selects the memory-management behaviour of a process.
type Policy struct {
	// IdentityMapHeap enables DVM identity mapping for heap (mmap)
	// allocations — the accelerator-facing DVM of Sections 3–4.
	IdentityMapHeap bool
	// IdentityMapAll additionally identity maps code, globals and stack
	// — the cDVM extension of Section 7.
	IdentityMapAll bool
	// Seed randomizes address-space placement (ASLR); processes with
	// the same seed lay out identically, keeping simulations
	// reproducible.
	Seed int64
}

// VMA is a virtual memory area.
type VMA struct {
	Kind SegmentKind
	R    addr.VRange
	Perm addr.Perm
	// Identity is true when the whole VMA is identity mapped (VA==PA)
	// onto Backing.
	Identity bool
	// Backing is the eager physical range (valid when Identity).
	Backing addr.PRange
	// pages maps page index within the VMA -> backing frame for
	// demand-paged VMAs; a page is absent until first touch.
	pages map[uint64]addr.PA
}

// Pages returns how many 4 KB pages of the VMA are currently backed.
func (v *VMA) Pages() uint64 {
	if v.Identity {
		return v.R.Size / addr.PageSize4K
	}
	return uint64(len(v.pages))
}

// System is the machine-wide OS state: physical memory and the next
// process id, which seeds each process's address-space randomization.
type System struct {
	mem     *phys.Memory
	nextPID int
	// inj, when non-nil, injects identity-allocation failures
	// (simulated fragmentation pressure) into mmapSeg.
	inj *chaos.Injector
}

// SetChaos attaches a fault injector to the system; nil (the default)
// disables injection. An injected SiteAllocFail makes the next
// identity-eligible mmap take the demand-paged fallback arm — the
// "Move fails" path of the paper's Figure 7 — exactly as real physical
// fragmentation would.
func (s *System) SetChaos(inj *chaos.Injector) { s.inj = inj }

// NewSystem boots a system with the given physical memory size (bytes,
// power-of-two). The first KernelReserved bytes are claimed by the kernel
// at boot; managing the full [0, memBytes) range in one buddy keeps large
// blocks naturally aligned in physical address space, which identity
// mapping relies on for 1 GB-scale Permission Entry folding.
func NewSystem(memBytes uint64) (*System, error) {
	mem, err := phys.NewMemory(0, memBytes)
	if err != nil {
		return nil, err
	}
	if memBytes <= KernelReserved {
		return nil, fmt.Errorf("osmodel: memory %d does not fit the kernel reservation", memBytes)
	}
	if _, err := mem.AllocAt(0, KernelReserved); err != nil {
		return nil, err
	}
	return &System{mem: mem, nextPID: 1}, nil
}

// MustNewSystem is NewSystem that panics on error.
func MustNewSystem(memBytes uint64) *System {
	s, err := NewSystem(memBytes)
	if err != nil {
		panic(err)
	}
	return s
}

// Memory exposes the physical allocator (for statistics).
func (s *System) Memory() *phys.Memory { return s.mem }

// NewProcess creates an empty process.
func (s *System) NewProcess(pol Policy) *Process {
	p := &Process{
		sys:     s,
		policy:  pol,
		mmapTop: mmapTopVA,
	}
	// ASLR: randomize the top of the demand-paged mmap area (28 bits of
	// entropy at page granularity, as in Linux).
	aslr := prng.New(pol.Seed ^ int64(s.nextPID)<<32).Int63n(1 << 28)
	p.mmapTop -= addr.VA(uint64(aslr) * addr.PageSize4K / 16)
	s.nextPID++
	return p
}

// Process is a simulated process address space.
type Process struct {
	sys     *System
	policy  Policy
	vmas    []*VMA // sorted by R.Start
	mmapTop addr.VA
	stats   ProcStats
}

// ProcStats counts identity-mapping outcomes for a process (Table 4's
// ingredients).
type ProcStats struct {
	// IdentityBytes is the total size of live identity-mapped VMAs.
	IdentityBytes uint64
	// DemandBytes is the total size of live demand-paged VMAs.
	DemandBytes uint64
	// IdentityFailures counts allocations that fell back to demand
	// paging (no contiguous PM, or VA range collision).
	IdentityFailures uint64
}

// Policy returns the process policy.
func (p *Process) Policy() Policy { return p.policy }

// Stats returns the current statistics.
func (p *Process) Stats() ProcStats { return p.stats }

// VMAs returns the live areas, sorted by start address. The slice is shared;
// callers must not mutate it.
func (p *Process) VMAs() []*VMA { return p.vmas }

// FindVMA returns the VMA containing va, or nil.
func (p *Process) FindVMA(va addr.VA) *VMA {
	i := sort.Search(len(p.vmas), func(i int) bool { return p.vmas[i].R.End() > va })
	if i < len(p.vmas) && p.vmas[i].R.Contains(va) {
		return p.vmas[i]
	}
	return nil
}

// rangeFree reports whether [start,start+size) overlaps no existing VMA and
// lies in user space. The VMA slice is sorted and non-overlapping, so a
// single binary search suffices.
func (p *Process) rangeFree(start addr.VA, size uint64) bool {
	if start < minUserVA || uint64(start)+size > uint64(addr.MaxVA)>>1 {
		return false
	}
	probe := addr.VRange{Start: start, Size: size}
	i := sort.Search(len(p.vmas), func(i int) bool { return p.vmas[i].R.End() > start })
	return i == len(p.vmas) || !p.vmas[i].R.Overlaps(probe)
}

// insertVMA adds v keeping the slice sorted.
func (p *Process) insertVMA(v *VMA) {
	i := sort.Search(len(p.vmas), func(i int) bool { return p.vmas[i].R.Start >= v.R.Start })
	p.vmas = append(p.vmas, nil)
	copy(p.vmas[i+1:], p.vmas[i:])
	p.vmas[i] = v
}

// findFreeVA finds space for a demand-paged mapping in the mmap area,
// scanning downward from the randomized top.
func (p *Process) findFreeVA(size uint64) (addr.VA, error) {
	size = addr.AlignUp(size, addr.PageSize4K)
	cand := addr.VA(addr.AlignDown(uint64(p.mmapTop)-size, addr.PageSize4K))
	for tries := 0; tries < 1<<20; tries++ {
		if cand < minUserVA {
			return 0, fmt.Errorf("osmodel: virtual address space exhausted")
		}
		if p.rangeFree(cand, size) {
			p.mmapTop = cand
			return cand, nil
		}
		// Skip below the blocking VMA.
		blocker := p.FindVMA(cand)
		if blocker == nil {
			blocker = p.FindVMA(cand + addr.VA(size) - 1)
		}
		if blocker == nil {
			cand -= addr.VA(addr.PageSize4K)
			continue
		}
		if uint64(blocker.R.Start) < size {
			return 0, fmt.Errorf("osmodel: virtual address space exhausted")
		}
		cand = addr.VA(addr.AlignDown(uint64(blocker.R.Start)-size, addr.PageSize4K))
	}
	return 0, fmt.Errorf("osmodel: no free virtual range for %d bytes", size)
}

// Mmap allocates size bytes with the given permission, following the
// paper's Figure 7: try eager contiguous allocation + identity placement,
// else fall back to demand paging. It returns the mapped range and whether
// it is identity mapped.
func (p *Process) Mmap(size uint64, perm addr.Perm) (addr.VRange, bool, error) {
	return p.mmapSeg(size, perm, SegHeap, p.policy.IdentityMapHeap)
}

func (p *Process) mmapSeg(size uint64, perm addr.Perm, kind SegmentKind, identity bool) (addr.VRange, bool, error) {
	if size == 0 {
		return addr.VRange{}, false, fmt.Errorf("osmodel: zero-size mapping")
	}
	size = addr.AlignUp(size, addr.PageSize4K)
	if identity && p.sys.inj.Hit(chaos.SiteAllocFail) {
		// Injected fragmentation: the contiguous identity grab fails
		// before it is attempted; take the demand-paging arm below.
		p.stats.IdentityFailures++
		identity = false
	}
	if identity {
		granule := identityGranuleFor(size)
		gsize := addr.AlignUp(size, granule)
		align := granule
		if granule == IdentityGranuleLarge {
			// GB-scale allocations get their own 1 GB-aligned
			// table entries, so they fold into L3 PEs instead of
			// sharing (and poisoning) an entry with small
			// segments.
			align = addr.PageSize1G
		}
		if pr, err := p.sys.mem.AllocContiguousAligned(gsize, align); err == nil {
			va := addr.VA(pr.Start)
			if p.rangeFree(va, gsize) {
				v := &VMA{Kind: kind, R: addr.VRange{Start: va, Size: gsize}, Perm: perm, Identity: true, Backing: pr}
				p.insertVMA(v)
				p.stats.IdentityBytes += gsize
				return v.R, true, nil
			}
			// VA collision: give the physical range back and fall
			// back to demand paging (paper Figure 7's "Move fails"
			// arm).
			if err := p.sys.mem.Free(pr); err != nil {
				return addr.VRange{}, false, err
			}
			p.stats.IdentityFailures++
		} else {
			p.stats.IdentityFailures++
		}
	}
	va, err := p.findFreeVA(size)
	if err != nil {
		return addr.VRange{}, false, err
	}
	v := &VMA{Kind: kind, R: addr.VRange{Start: va, Size: size}, Perm: perm, pages: make(map[uint64]addr.PA)}
	p.insertVMA(v)
	p.stats.DemandBytes += size
	return v.R, false, nil
}

// Munmap removes a mapping previously returned by Mmap (whole-VMA only) and
// frees its physical backing.
func (p *Process) Munmap(r addr.VRange) error {
	i := sort.Search(len(p.vmas), func(i int) bool { return p.vmas[i].R.Start >= r.Start })
	if i < len(p.vmas) && p.vmas[i].R == r {
		v := p.vmas[i]
		p.vmas = append(p.vmas[:i], p.vmas[i+1:]...)
		if v.Identity {
			p.stats.IdentityBytes -= v.R.Size
			// FreeRange rather than Free because segment splitting
			// (LoadProgram) can leave a VMA backed by a sub-range of
			// its original block.
			return p.sys.mem.FreeRange(v.Backing)
		}
		p.stats.DemandBytes -= v.R.Size
		return p.sys.releasePages(v)
	}
	return fmt.Errorf("osmodel: Munmap(%v): no such mapping", r)
}

// releasePages frees the demand-paged frames of v.
func (s *System) releasePages(v *VMA) error {
	for _, pa := range v.pages {
		if err := s.mem.FreeRange(addr.PRange{Start: pa, Size: addr.PageSize4K}); err != nil {
			return err
		}
	}
	v.pages = nil
	return nil
}

// Mprotect changes the permission of a whole VMA.
func (p *Process) Mprotect(r addr.VRange, perm addr.Perm) error {
	for _, v := range p.vmas {
		if v.R == r {
			v.Perm = perm
			return nil
		}
	}
	return fmt.Errorf("osmodel: Mprotect(%v): no such mapping", r)
}

// Touch simulates an access to va, running the demand-paging fault handler
// if needed, and returns the backing physical address. A permission
// violation returns an error (the process would receive SIGSEGV).
func (p *Process) Touch(va addr.VA, kind addr.AccessKind) (addr.PA, error) {
	v := p.FindVMA(va)
	if v == nil {
		return 0, fmt.Errorf("osmodel: segfault at %#x (no mapping)", uint64(va))
	}
	if !v.Perm.Allows(kind) {
		return 0, fmt.Errorf("osmodel: %v access to %#x denied (%v)", kind, uint64(va), v.Perm)
	}
	if v.Identity {
		return addr.PA(va), nil
	}
	idx := uint64(va-v.R.Start) / addr.PageSize4K
	if pa, ok := v.pages[idx]; ok {
		return pa + addr.PA(uint64(va)%addr.PageSize4K), nil
	}
	pa, err := p.sys.mem.AllocFrame()
	if err != nil {
		return 0, fmt.Errorf("osmodel: out of memory demand-paging %#x: %w", uint64(va), err)
	}
	v.pages[idx] = pa
	return pa + addr.PA(uint64(va)%addr.PageSize4K), nil
}

// TouchRange faults in every page of r (like memset over a new allocation).
func (p *Process) TouchRange(r addr.VRange, kind addr.AccessKind) error {
	for va := r.Start.PageDown(); va < r.End(); va += addr.VA(addr.PageSize4K) {
		if _, err := p.Touch(va, kind); err != nil {
			return err
		}
	}
	return nil
}

// Translate resolves va to its current backing PA without faulting.
func (p *Process) Translate(va addr.VA) (addr.PA, bool) {
	v := p.FindVMA(va)
	if v == nil {
		return 0, false
	}
	if v.Identity {
		return addr.PA(va), true
	}
	idx := uint64(va-v.R.Start) / addr.PageSize4K
	pa, ok := v.pages[idx]
	if !ok {
		return 0, false
	}
	return pa + addr.PA(uint64(va)%addr.PageSize4K), true
}
