package mmu

import (
	"fmt"

	"github.com/dvm-sim/dvm/internal/addr"
	"github.com/dvm-sim/dvm/internal/obs"
	"github.com/dvm-sim/dvm/internal/pagetable"
)

// This file implements the paper's seven evaluated configurations as
// registered backends. Their decision logic, probe/memref accounting and
// trace emission are unchanged from the pre-registry IOMMU — the golden
// artifact tests pin the rendered tables byte-for-byte across the
// refactor.

// registerBuiltins installs the paper's seven-configuration set.
func registerBuiltins() {
	Register(Descriptor{
		Mode: ModeConv4K, Name: "4K,TLB+PWC", Slug: "conv4k", Aliases: []string{"4k", "conv4k"},
		Paper: true, Order: 10, PageSize: addr.PageSize4K, Table: TableCanonical,
		New: func(u *IOMMU) (Backend, error) { return newConvBackend(u) },
	})
	Register(Descriptor{
		Mode: ModeConv2M, Name: "2M,TLB+PWC", Slug: "conv2m", Aliases: []string{"2m", "conv2m"},
		Paper: true, Order: 20, PageSize: addr.PageSize2M, Table: TableHuge,
		New: func(u *IOMMU) (Backend, error) { return newConvBackend(u) },
	})
	Register(Descriptor{
		Mode: ModeConv1G, Name: "1G,TLB+PWC", Slug: "conv1g", Aliases: []string{"1g", "conv1g"},
		Paper: true, Order: 30, PageSize: addr.PageSize1G, Table: TableHuge,
		New: func(u *IOMMU) (Backend, error) { return newConvBackend(u) },
	})
	Register(Descriptor{
		Mode: ModeDVMBM, Name: "DVM-BM", Slug: "dvmbm", Aliases: []string{"bm", "dvmbm"},
		Paper: true, Order: 40, PageSize: addr.PageSize4K, Table: TableCanonical, NeedsBitmap: true,
		New: newBMBackend,
	})
	Register(Descriptor{
		Mode: ModeDVMPE, Name: "DVM-PE", Slug: "dvmpe", Aliases: []string{"pe", "dvmpe"},
		Paper: true, Order: 50, PageSize: addr.PageSize4K, UsesPE: true, Table: TablePE,
		New: func(u *IOMMU) (Backend, error) { return newPEBackend(u, false) },
	})
	Register(Descriptor{
		Mode: ModeDVMPEPlus, Name: "DVM-PE+", Slug: "dvmpeplus", Aliases: []string{"pe+", "dvmpeplus", "dvm-pe-plus"},
		Paper: true, Order: 60, PageSize: addr.PageSize4K, UsesPE: true, Table: TablePE,
		New: func(u *IOMMU) (Backend, error) { return newPEBackend(u, true) },
	})
	Register(Descriptor{
		Mode: ModeIdeal, Name: "Ideal", Slug: "ideal", Aliases: []string{"ideal"},
		Paper: true, Order: 100, PageSize: addr.PageSize4K, Table: TableNone,
		New: func(u *IOMMU) (Backend, error) { return &idealBackend{}, nil },
	})
}

// idealBackend: direct physical access — unsafe, free, and the
// normalization baseline. No structures at all.
type idealBackend struct{}

func (b *idealBackend) TranslateInto(va addr.VA, _ addr.AccessKind, p *Plan) {
	p.PA = addr.PA(va)
}

// SwitchContext: nothing to switch — direct physical access has no state
// (and no protection, the reason Ideal is not deployable).
func (b *idealBackend) SwitchContext(State) error     { return nil }
func (b *idealBackend) RegisterMetrics(*obs.Registry) {}
func (b *idealBackend) SetTracer(*obs.Tracer)         {}
func (b *idealBackend) Stats() BackendStats           { return BackendStats{} }
func (b *idealBackend) Reset()                        {}

// convBackend is conventional virtual memory: TLB + PWC + page walk, at
// the 4K/2M/1G granularity its table was built with.
type convBackend struct {
	u   *IOMMU
	tlb *TLB
	pwc *PTECache
}

func newConvBackend(u *IOMMU) (*convBackend, error) {
	if u.table == nil {
		return nil, fmt.Errorf("mmu: mode %v requires a page table", u.cfg.Mode)
	}
	pwcCfg := u.cfg.PWC
	if pwcCfg.MinLevel == 0 {
		pwcCfg = DefaultPWCConfig()
	}
	return &convBackend{
		u:   u,
		tlb: MustNewTLB(TLBConfig{Entries: u.cfg.TLBEntries, Ways: u.cfg.TLBWays, PageSize: u.cfg.Mode.PageSize()}),
		pwc: MustNewPTECache(pwcCfg),
	}, nil
}

func (b *convBackend) TranslateInto(va addr.VA, kind addr.AccessKind, p *Plan) {
	u := b.u
	p.ProbeCycles += u.cfg.ProbeCycles
	if pa, perm, hit := b.tlb.Lookup(va); hit {
		u.finishTranslated(va, pa, perm, kind, p)
		return
	}
	u.walkTable(va, p, b.pwc)
	if u.walk.Outcome == pagetable.WalkFault {
		u.walkFault(p, va)
		return
	}
	b.tlb.Insert(u.walk.MapBase, u.walk.PA-addr.PA(uint64(va)-uint64(u.walk.MapBase)), u.walk.Perm)
	u.finishTranslated(va, u.walk.PA, u.walk.Perm, kind, p)
}

func (b *convBackend) SwitchContext(st State) error {
	if st.Table == nil {
		return fmt.Errorf("mmu: %v context needs a page table", b.u.cfg.Mode)
	}
	b.tlb.Invalidate()
	return nil
}

func (b *convBackend) RegisterMetrics(reg *obs.Registry) {
	b.tlb.RegisterMetrics(reg, "mmu.tlb")
	b.pwc.RegisterMetrics(reg, "mmu.pwc")
}

func (b *convBackend) SetTracer(tr *obs.Tracer) {
	b.tlb.SetTrace(tr, obs.CompTLB)
	b.pwc.SetTrace(tr, obs.CompPWC)
}

func (b *convBackend) Stats() BackendStats {
	tlb := b.tlb.Snapshot()
	pwc := b.pwc.Snapshot()
	return BackendStats{
		TLBLookups:    tlb.Lookups(),
		TLBMissRate:   tlb.MissRate(),
		TLBLookupsFA:  tlb.Lookups(),
		CacheLookups:  pwc.Lookups(),
		StructHitRate: pwc.HitRate(),
	}
}

func (b *convBackend) Reset() {
	b.tlb.Reset()
	b.pwc.Reset()
}

// peBackend is Devirtualized Access Validation via PE page tables + AVC
// (DVM-PE), optionally with preload-on-read (DVM-PE+).
type peBackend struct {
	u       *IOMMU
	avc     *PTECache
	preload bool
	// fronts holds one front table per issuing PE (front.go), grown on
	// a PE's first access. frontOn is false while a chaos injector or a
	// tracer that records IOMMU or AVC events is attached: their draws
	// and events follow the walk, so those runs always walk.
	fronts  []frontTable
	frontOn bool
}

func newPEBackend(u *IOMMU, preload bool) (*peBackend, error) {
	if u.table == nil {
		return nil, fmt.Errorf("mmu: mode %v requires a page table", u.cfg.Mode)
	}
	avcCfg := u.cfg.AVC
	if avcCfg.MinLevel == 0 {
		avcCfg = DefaultAVCConfig()
	}
	return &peBackend{u: u, avc: MustNewPTECache(avcCfg), preload: preload, frontOn: u.cfg.Chaos == nil}, nil
}

func (b *peBackend) TranslateInto(va addr.VA, kind addr.AccessKind, p *Plan) {
	u := b.u
	var slot *frontEntry
	if b.frontOn && u.pe >= 0 {
		slot = b.front(u.pe).slot(va)
		if slot.gen == b.avc.gen && uint64(va)-uint64(slot.base) < slot.size {
			// Every line of the span's walk is still resident where
			// it was recorded: the walk would hit on each step.
			b.avc.replayHits(slot.lines[:slot.n])
			p.ProbeCycles += uint64(slot.n) * u.cfg.ProbeCycles
			b.identity(va, slot.perm, kind, p, false)
			return
		}
	}
	trace := u.tr.Wants(obs.CompIOMMU)
	if trace {
		u.tr.Emit(obs.CompIOMMU, obs.EvDAVCheck, uint64(va), 0, uint64(kind))
	}
	u.walkTable(va, p, b.avc)
	switch u.walk.Outcome {
	case pagetable.WalkFault:
		u.walkFault(p, va)
		return
	case pagetable.WalkPE:
		if slot != nil {
			slot.record(&u.walk, b.avc)
		}
		b.identity(va, u.walk.Perm, kind, p, trace)
	case pagetable.WalkLeaf:
		// Fallback: the page is not identity mapped; the same walk
		// that validated the access also yields the translation, so
		// the cost is no worse than conventional VM.
		if u.walk.Identity {
			b.identity(va, u.walk.Perm, kind, p, trace)
			return
		}
		u.ctr.FallbackTranslations++
		if trace {
			u.tr.Emit(obs.CompIOMMU, obs.EvDAVFallback, uint64(va), uint64(u.walk.PA), uint64(kind))
		}
		if b.preload && kind == addr.Read {
			// The preload predicted PA==VA and was wrong:
			// squash and retry at the translated address.
			p.SquashedPreload = true
			u.ctr.SquashedPreloads++
			if trace {
				u.tr.Emit(obs.CompIOMMU, obs.EvPreloadSquash, uint64(va), uint64(u.walk.PA), uint64(va))
			}
		}
		u.finishTranslated(va, u.walk.PA, u.walk.Perm, kind, p)
	}
}

// identity finishes an access validated as identity mapped (PA == VA):
// DVM-PE+ overlaps a read's data fetch with validation, then the
// permission check runs.
func (b *peBackend) identity(va addr.VA, perm addr.Perm, kind addr.AccessKind, p *Plan, trace bool) {
	u := b.u
	u.ctr.DAVIdentity++
	if b.preload && kind == addr.Read {
		p.OverlapData = true
	}
	if trace {
		u.tr.Emit(obs.CompIOMMU, obs.EvDAVIdentity, uint64(va), uint64(va), uint64(kind))
		if p.OverlapData {
			u.tr.Emit(obs.CompIOMMU, obs.EvPreloadIssue, uint64(va), uint64(va), 0)
		}
	}
	u.finishTranslated(va, addr.PA(va), perm, kind, p)
}

// SwitchContext: the AVC is physically indexed and tagged, so it is not
// flushed — lines of the old table are harmlessly distinct from the new
// table's. Only the per-PE front tables, which name VA spans, are.
func (b *peBackend) SwitchContext(st State) error {
	if st.Table == nil {
		return fmt.Errorf("mmu: %v context needs a page table", b.u.cfg.Mode)
	}
	// The front tables remember spans of the old table's walks.
	clear(b.fronts)
	return nil
}

func (b *peBackend) RegisterMetrics(reg *obs.Registry) {
	b.avc.RegisterMetrics(reg, "mmu.avc")
}

func (b *peBackend) SetTracer(tr *obs.Tracer) {
	b.avc.SetTrace(tr, obs.CompAVC)
	b.frontOn = b.u.cfg.Chaos == nil && !tr.Wants(obs.CompIOMMU) && !tr.Wants(obs.CompAVC)
}

func (b *peBackend) Stats() BackendStats {
	avc := b.avc.Snapshot()
	return BackendStats{CacheLookups: avc.Lookups(), StructHitRate: avc.HitRate()}
}

func (b *peBackend) Reset() { b.avc.Reset() }

// bmBackend is DAV via the flat permission bitmap (DVM-BM): a
// page-granular bitmap cache in front of the in-memory bitmap, with a
// TLB + walk fallback for non-identity pages.
type bmBackend struct {
	u   *IOMMU
	tlb *TLB
	pwc *PTECache
	// bmCache is the DVM-BM permission cache: page-granular entries
	// (vpn -> perm), modelled as a TLB whose "translation" is identity.
	bmCache *TLB
}

func newBMBackend(u *IOMMU) (Backend, error) {
	if u.bm == nil {
		return nil, fmt.Errorf("mmu: ModeDVMBM requires a permission bitmap")
	}
	if u.table == nil {
		return nil, fmt.Errorf("mmu: mode %v requires a page table", u.cfg.Mode)
	}
	pwcCfg := u.cfg.PWC
	if pwcCfg.MinLevel == 0 {
		pwcCfg = DefaultPWCConfig()
	}
	bmEntries := u.cfg.BMCacheEntries
	if bmEntries == 0 {
		bmEntries = 128
	}
	return &bmBackend{
		u:   u,
		tlb: MustNewTLB(TLBConfig{Entries: u.cfg.TLBEntries, Ways: u.cfg.TLBWays, PageSize: addr.PageSize4K}),
		pwc: MustNewPTECache(pwcCfg),
		// The bitmap cache: 128 page-granular permission entries.
		bmCache: MustNewTLB(TLBConfig{Entries: bmEntries, Ways: 4, PageSize: addr.PageSize4K}),
	}, nil
}

func (b *bmBackend) TranslateInto(va addr.VA, kind addr.AccessKind, p *Plan) {
	u := b.u
	trace := u.tr.Wants(obs.CompIOMMU)
	if trace {
		u.tr.Emit(obs.CompIOMMU, obs.EvDAVCheck, uint64(va), 0, uint64(kind))
	}
	p.ProbeCycles += u.cfg.ProbeCycles
	perm, cached := b.lookupBitmap(va, p)
	// The DAV events carry the access kind plus the bitmap-cache
	// hit/miss distinction in Aux, so a trace can separate cached
	// validations from ones that cost a bitmap memory reference.
	aux := uint64(kind)
	if cached {
		aux |= obs.AuxBMCacheHit
	}
	if perm != addr.NoPerm {
		// Identity-mapped heap page: validate and go.
		u.ctr.DAVIdentity++
		if trace {
			u.tr.Emit(obs.CompIOMMU, obs.EvDAVIdentity, uint64(va), uint64(va), aux)
		}
		u.finishTranslated(va, addr.PA(va), perm, kind, p)
		return
	}
	// 00 in the bitmap: not identity mapped — full translation,
	// expedited by the fallback TLB.
	u.ctr.FallbackTranslations++
	if trace {
		u.tr.Emit(obs.CompIOMMU, obs.EvDAVFallback, uint64(va), 0, aux)
	}
	p.ProbeCycles += u.cfg.ProbeCycles
	if pa, tlbPerm, hit := b.tlb.Lookup(va); hit {
		u.finishTranslated(va, pa, tlbPerm, kind, p)
		return
	}
	u.walkTable(va, p, b.pwc)
	if u.walk.Outcome == pagetable.WalkFault {
		u.walkFault(p, va)
		return
	}
	b.tlb.Insert(u.walk.MapBase, u.walk.PA-addr.PA(uint64(va)-uint64(u.walk.MapBase)), u.walk.Perm)
	u.finishTranslated(va, u.walk.PA, u.walk.Perm, kind, p)
}

// lookupBitmap resolves a page's 2-bit permission through the bitmap
// cache, charging one memory reference for the bitmap line on a miss.
func (b *bmBackend) lookupBitmap(va addr.VA, p *Plan) (addr.Perm, bool) {
	u := b.u
	base := va.PageDown()
	if _, perm, hit := b.bmCache.Lookup(va); hit {
		return perm, true
	}
	perm, linePA := u.bm.Lookup(va)
	p.MemRefs = append(p.MemRefs, linePA)
	u.ctr.WalkMemRefs++
	u.tr.Emit(obs.CompBitmap, obs.EvMemRef, uint64(va), uint64(linePA), 0)
	b.bmCache.Insert(base, addr.PA(base), perm)
	return perm, false
}

func (b *bmBackend) SwitchContext(st State) error {
	if st.Table == nil || st.Bitmap == nil {
		return fmt.Errorf("mmu: %v context needs a table and a bitmap", b.u.cfg.Mode)
	}
	b.tlb.Invalidate()
	b.bmCache.Invalidate()
	return nil
}

func (b *bmBackend) RegisterMetrics(reg *obs.Registry) {
	b.tlb.RegisterMetrics(reg, "mmu.tlb")
	b.pwc.RegisterMetrics(reg, "mmu.pwc")
	b.bmCache.RegisterMetrics(reg, "mmu.bmcache")
}

func (b *bmBackend) SetTracer(tr *obs.Tracer) {
	b.tlb.SetTrace(tr, obs.CompTLB)
	b.pwc.SetTrace(tr, obs.CompPWC)
	b.bmCache.SetTrace(tr, obs.CompBMCache)
}

func (b *bmBackend) Stats() BackendStats {
	tlb := b.tlb.Snapshot()
	pwc := b.pwc.Snapshot()
	bmc := b.bmCache.Snapshot()
	return BackendStats{
		TLBLookups:   tlb.Lookups(),
		TLBMissRate:  tlb.MissRate(),
		TLBLookupsFA: tlb.Lookups(),
		CacheLookups: pwc.Lookups() + bmc.Lookups(),
		// The headline structure of DVM-BM is the bitmap cache; its hit
		// rate is reported as 1 - miss rate, matching the pre-registry
		// report pipeline bit-for-bit.
		StructHitRate: 1 - bmc.MissRate(),
	}
}

func (b *bmBackend) Reset() {
	b.tlb.Reset()
	b.pwc.Reset()
	b.bmCache.Reset()
}
