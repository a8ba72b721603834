package osmodel

import (
	"fmt"

	"github.com/dvm-sim/dvm/internal/addr"
	"github.com/dvm-sim/dvm/internal/pagetable"
)

// BuildCanonicalTable materializes the process's exact mapping state as a
// 4 KB-granularity page table: identity VMAs become identity leaf PTEs and
// demand-paged VMAs map their touched pages to their actual frames. When
// usePE is true the table is then compacted with Permission Entries — the
// table the DVM IOMMU walks.
func (p *Process) BuildCanonicalTable(usePE bool) (*pagetable.Table, error) {
	tbl, err := pagetable.New(pagetable.Config{})
	if err != nil {
		return nil, err
	}
	for _, v := range p.vmas {
		if v.Identity {
			if err := tbl.MapRange(v.R, addr.PA(v.R.Start), v.Perm, addr.PageSize4K); err != nil {
				return nil, err
			}
			continue
		}
		for idx, pa := range v.pages {
			va := v.R.Start + addr.VA(idx*addr.PageSize4K)
			if err := tbl.Map(va, pa, v.Perm, addr.PageSize4K); err != nil {
				return nil, err
			}
		}
	}
	if usePE {
		return tbl.Compacted()
	}
	return tbl, nil
}

// BuildHugeTable materializes a conventional page table at the given huge
// page size (2 MB or 1 GB), modelling an OS that backs every VMA with huge
// pages (THP-style). Each VMA's pageSize-aligned expanse is mapped with
// PA == VA regular leaves; overlapping expanses between adjacent VMAs are
// mapped once. This is the table the conventional 2M/1G IOMMU
// configurations walk — only the VA-side shape matters to them.
func (p *Process) BuildHugeTable(pageSize uint64) (*pagetable.Table, error) {
	if pageSize != addr.PageSize2M && pageSize != addr.PageSize1G {
		return nil, fmt.Errorf("osmodel: BuildHugeTable wants 2M or 1G, got %d", pageSize)
	}
	tbl, err := pagetable.New(pagetable.Config{})
	if err != nil {
		return nil, err
	}
	for _, v := range p.vmas {
		start := addr.AlignDown(uint64(v.R.Start), pageSize)
		end := addr.AlignUp(uint64(v.R.End()), pageSize)
		for va := start; va < end; va += pageSize {
			if _, _, ok := tbl.Lookup(addr.VA(va)); ok {
				continue // expanse shared with the previous VMA
			}
			if err := tbl.Map(addr.VA(va), addr.PA(va), v.Perm, pageSize); err != nil {
				return nil, err
			}
		}
	}
	return tbl, nil
}

// ForEachIdentityPage calls fn for every identity-mapped 4 KB page with its
// permission — the information DVM-BM's permission bitmap stores.
func (p *Process) ForEachIdentityPage(fn func(va addr.VA, perm addr.Perm)) {
	for _, v := range p.vmas {
		if !v.Identity {
			continue
		}
		for va := v.R.Start; va < v.R.End(); va += addr.VA(addr.PageSize4K) {
			fn(va, v.Perm)
		}
	}
}

// ForEachBlock calls fn for every VMA as one variable-size virtual block
// — the per-VMA range, permission and identity state a VBI-style block
// table stores. Blocks are visited in allocation order; callers that need
// address order sort afterwards.
func (p *Process) ForEachBlock(fn func(r addr.VRange, perm addr.Perm, identity bool)) {
	for _, v := range p.vmas {
		fn(v.R, v.Perm, v.Identity)
	}
}

// MappedBytes returns the total bytes of live mappings and how many of them
// are identity mapped — the Table 4 numerator/denominator.
func (p *Process) MappedBytes() (total, identity uint64) {
	for _, v := range p.vmas {
		total += v.R.Size
		if v.Identity {
			identity += v.R.Size
		}
	}
	return total, identity
}
