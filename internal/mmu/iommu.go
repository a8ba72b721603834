package mmu

import (
	"fmt"

	"github.com/dvm-sim/dvm/internal/addr"
	"github.com/dvm-sim/dvm/internal/chaos"
	"github.com/dvm-sim/dvm/internal/obs"
	"github.com/dvm-sim/dvm/internal/pagetable"
)

// Mode selects the memory-management scheme the IOMMU implements. The
// paper's Section 6.3 evaluates seven configurations; further designs
// (SPARTA, VBI, user registrations) plug in through the backend registry
// (backend.go) without touching this file.
type Mode int

// Registered configurations. The first seven are the paper's evaluated
// set; SPARTA and VBI are the registry's first extra designs.
const (
	// ModeIdeal: direct physical access, no translation or protection.
	ModeIdeal Mode = iota
	// ModeConv4K: conventional VM, 4 KB pages, TLB + PWC.
	ModeConv4K
	// ModeConv2M: conventional VM, 2 MB pages, TLB + PWC.
	ModeConv2M
	// ModeConv1G: conventional VM, 1 GB pages, TLB + PWC.
	ModeConv1G
	// ModeDVMBM: DAV via a flat permission bitmap + bitmap cache, with
	// TLB+walk fallback for non-identity pages.
	ModeDVMBM
	// ModeDVMPE: DAV via Permission Entry page tables + AVC.
	ModeDVMPE
	// ModeDVMPEPlus: ModeDVMPE plus preload-on-read (DAV overlapped with
	// the data fetch).
	ModeDVMPEPlus
	// ModeSPARTA: partitioned translation — each memory controller
	// translates its own VA shard with private structures (Picorel et
	// al., see PAPERS.md).
	ModeSPARTA
	// ModeVBI: variable-size virtual blocks with per-block translation
	// state (Hajinazar et al., see PAPERS.md).
	ModeVBI
)

// String returns the registered (paper) name for the configuration.
func (m Mode) String() string {
	if d, ok := DescriptorOf(m); ok {
		return d.Name
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// PageSize returns the translation page size the mode's page table is
// built with.
func (m Mode) PageSize() uint64 {
	if d, ok := DescriptorOf(m); ok && d.PageSize != 0 {
		return d.PageSize
	}
	return addr.PageSize4K
}

// UsesPE reports whether the mode's page table should be compacted with
// Permission Entries.
func (m Mode) UsesPE() bool {
	d, ok := DescriptorOf(m)
	return ok && d.UsesPE
}

// Config assembles an IOMMU.
type Config struct {
	Mode Mode
	// TLBEntries is the TLB size for conventional modes and the DVM-BM /
	// VBI fallback TLBs (SPARTA partitions it across shards); default 128.
	TLBEntries int
	// TLBWays: 0 = fully associative (the paper's accelerator IOMMU).
	TLBWays int
	// PWC overrides the page-walk-cache geometry (conventional + BM
	// fallback); zero-valued fields default to the paper's 1 KB 4-way.
	PWC PTECacheConfig
	// AVC overrides the Access Validation Cache geometry for PE modes.
	AVC PTECacheConfig
	// BMCacheEntries sizes the DVM-BM bitmap cache: a 128-entry (by
	// default) page-granular permission cache. Its page-granularity is
	// the paper's key contrast with the AVC, whose PE entries each cover
	// whole regions: "the hit rate of the BM cache is not as high as the
	// AVC, due to ... use of 4KB pages instead of 128KB or larger
	// regions".
	BMCacheEntries int
	// Shards is SPARTA's partition count — one translation shard per
	// memory controller; default 4 (the paper machine's channel count).
	// Must be a power of two.
	Shards int
	// BlockCacheEntries sizes VBI's per-block translation-state cache;
	// default 16 (block tables hold a handful of VMA-sized entries, so a
	// small fully-associative cache covers them).
	BlockCacheEntries int
	// ProbeCycles is the latency of one structure probe (TLB, PWC, AVC
	// or bitmap-cache); default 1 cycle (Table 2).
	ProbeCycles uint64
	// Chaos, when non-nil, injects simulated page-table faults into the
	// walk path (corrupted PTEs, truncated subtrees, bad PE permission
	// fields). The injection flips the walk outcome *after* the real
	// walk — shared page tables are never mutated — so a corrupted
	// translation surfaces as a typed fault, never a mistranslation.
	Chaos *chaos.Injector
}

// Counters aggregates IOMMU activity for performance and energy reporting.
type Counters struct {
	// Accesses is the number of memory requests validated/translated.
	Accesses uint64
	// WalkMemRefs is the number of page-walk (or bitmap / block-table)
	// memory references issued.
	WalkMemRefs uint64
	// DAVIdentity counts accesses validated as identity mapped (PA==VA).
	DAVIdentity uint64
	// FallbackTranslations counts DVM accesses that required a real
	// translation (PA != VA).
	FallbackTranslations uint64
	// SquashedPreloads counts preloads launched and discarded (DVM-PE+
	// reads to non-identity pages).
	SquashedPreloads uint64
	// Faults counts permission/validation failures (exceptions raised on
	// the host CPU).
	Faults uint64
	// CorruptFaults is the subset of Faults caused by structurally
	// invalid page-table state (FaultCorrupt/FaultBadPE walks) — in
	// practice only nonzero under fault injection.
	CorruptFaults uint64
	// ContextSwitches counts SwitchContext invocations (accelerator
	// multiplexing across processes).
	ContextSwitches uint64
}

// Plan is the timing-relevant outcome of validating/translating one memory
// access. The accelerator engine prices it against the memory controller:
// ProbeCycles are serial structure latencies, MemRefs are *dependent*
// memory references (each must complete before the next), and then the
// data access proceeds (overlapped with everything else when OverlapData).
type Plan struct {
	// PA is the physical address to access (undefined when Fault).
	PA addr.PA
	// Fault means the access is not permitted; the access is dropped and
	// an exception is raised on the host.
	Fault bool
	// FaultKind refines Fault: FaultUnmapped/FaultCorrupt/FaultBadPE for
	// walk faults, FaultNone for a plain permission denial.
	FaultKind pagetable.FaultKind
	// ProbeCycles is the total serial latency of structure probes.
	ProbeCycles uint64
	// MemRefs are the dependent page-walk/bitmap memory references.
	MemRefs []addr.PA
	// OverlapData: the data fetch may be launched in parallel with
	// validation (DVM preload on reads).
	OverlapData bool
	// SquashedPreload: a preload was launched but had to be discarded;
	// costs an extra (wasted) data memory reference's energy/bandwidth.
	SquashedPreload bool
}

// reset clears a plan for reuse.
func (p *Plan) reset() {
	p.PA = 0
	p.Fault = false
	p.FaultKind = pagetable.FaultNone
	p.ProbeCycles = 0
	p.MemRefs = p.MemRefs[:0]
	p.OverlapData = false
	p.SquashedPreload = false
}

// IOMMU validates and translates accelerator memory accesses per its
// configured Mode. It is the front-end over a registered Backend: the
// IOMMU owns what every design shares — the activity counters, the
// tracer, the reusable walk buffer and the OS-model state pointers — and
// the backend owns the design's hardware structures and decision logic.
type IOMMU struct {
	cfg    Config
	table  *pagetable.Table
	bm     *PermBitmap
	blocks *BlockTable

	be Backend

	walk pagetable.WalkResult
	ctr  Counters
	// pe is the processing element issuing the access in flight, or
	// NoPE. Backends with per-PE state (the PE modes' front tables)
	// read it; the Backend interface stays PE-agnostic.
	pe int
	// walkHist is the per-translation walk-memory-reference
	// distribution: every TranslateInto observes len(p.MemRefs), so its
	// count equals ctr.Accesses and its sum equals ctr.WalkMemRefs
	// (core.CrossCheck pins both). A plain struct field — observing is
	// shift/compare arithmetic, keeping the hot path allocation-free.
	walkHist obs.Histogram
	tr       *obs.Tracer
}

// New creates an IOMMU over the given page table (built by the OS model
// with the mode's page size / PE layout) and, for ModeDVMBM, the permission
// bitmap (nil otherwise). Designs needing more state (VBI's block table)
// are constructed via NewState.
func New(cfg Config, table *pagetable.Table, bm *PermBitmap) (*IOMMU, error) {
	return NewState(cfg, State{Table: table, Bitmap: bm})
}

// NewState creates an IOMMU over the full OS-model state bundle. The
// mode's registered descriptor declares which State fields it needs; its
// backend constructor enforces them.
func NewState(cfg Config, st State) (*IOMMU, error) {
	if cfg.TLBEntries == 0 {
		cfg.TLBEntries = 128
	}
	if cfg.ProbeCycles == 0 {
		cfg.ProbeCycles = 1
	}
	d, ok := DescriptorOf(cfg.Mode)
	if !ok {
		return nil, fmt.Errorf("mmu: unknown mode %v", cfg.Mode)
	}
	u := &IOMMU{cfg: cfg, table: st.Table, bm: st.Bitmap, blocks: st.Blocks}
	be, err := d.New(u)
	if err != nil {
		return nil, err
	}
	u.be = be
	return u, nil
}

// MustNew is New that panics on error.
func MustNew(cfg Config, table *pagetable.Table, bm *PermBitmap) *IOMMU {
	u, err := New(cfg, table, bm)
	if err != nil {
		panic(err)
	}
	return u
}

// Mode returns the configured mode.
func (u *IOMMU) Mode() Mode { return u.cfg.Mode }

// Counters returns a copy of the activity counters.
func (u *IOMMU) Counters() Counters { return u.ctr }

// Backend returns the mode's translation backend.
func (u *IOMMU) Backend() Backend { return u.be }

// Stats returns the backend's headline statistics (the numbers the report
// tables and the energy model consume).
func (u *IOMMU) Stats() BackendStats { return u.be.Stats() }

// TLB returns the IOMMU's TLB (nil for designs without one).
func (u *IOMMU) TLB() *TLB {
	switch b := u.be.(type) {
	case *convBackend:
		return b.tlb
	case *bmBackend:
		return b.tlb
	case *vbiBackend:
		return b.tlb
	}
	return nil
}

// PWC returns the page-walk cache (nil for designs without one).
func (u *IOMMU) PWC() *PTECache {
	switch b := u.be.(type) {
	case *convBackend:
		return b.pwc
	case *bmBackend:
		return b.pwc
	case *vbiBackend:
		return b.pwc
	}
	return nil
}

// AVC returns the Access Validation Cache (nil unless a PE mode).
func (u *IOMMU) AVC() *PTECache {
	if b, ok := u.be.(*peBackend); ok {
		return b.avc
	}
	return nil
}

// RegisterMetrics publishes the IOMMU's activity counters and those of
// every structure the backend owns into reg, under the repository's
// standard names (iommu.*, then the backend's namespace: mmu.tlb.*,
// mmu.pwc.*, mmu.avc.*, mmu.bmcache.*, mmu.sparta.*, mmu.vbi.*).
// Registration is pointer-based: the hot translation path keeps
// incrementing the same fields it always has, so observability adds no
// allocation and no indirection there. The Counters() accessor remains
// a thin view over the same storage.
func (u *IOMMU) RegisterMetrics(reg *obs.Registry) {
	reg.RegisterCounter("iommu.accesses", &u.ctr.Accesses)
	reg.RegisterCounter("iommu.walk.memrefs", &u.ctr.WalkMemRefs)
	reg.RegisterCounter("iommu.dav.identity", &u.ctr.DAVIdentity)
	reg.RegisterCounter("iommu.dav.fallback", &u.ctr.FallbackTranslations)
	reg.RegisterCounter("iommu.preload.squashed", &u.ctr.SquashedPreloads)
	reg.RegisterCounter("iommu.faults", &u.ctr.Faults)
	reg.RegisterCounter("iommu.faults.corrupt", &u.ctr.CorruptFaults)
	reg.RegisterCounter("iommu.ctxswitches", &u.ctr.ContextSwitches)
	// The walk distribution is published per mode under the descriptor's
	// slug (mmu.conv4k.walk.memrefs, mmu.sparta.walk.memrefs, ...).
	// Ideal walks nothing, so its all-zero distribution is not exported;
	// the field is still observed, which costs nothing measurable.
	if d, ok := DescriptorOf(u.cfg.Mode); ok && d.Table != TableNone {
		reg.RegisterHistogram("mmu."+d.Slug+".walk.memrefs", &u.walkHist)
	}
	u.be.RegisterMetrics(reg)
}

// SetTracer attaches an event tracer to the IOMMU and every structure
// the backend owns; nil detaches. Tracing never changes results — events
// are emitted after the fact and the tracer only records.
func (u *IOMMU) SetTracer(tr *obs.Tracer) {
	u.tr = tr
	u.be.SetTracer(tr)
}

// SwitchContext retargets the IOMMU at another process's translation state
// — the accelerator-multiplexing path ("similar protection guarantees are
// needed when accelerators are multiplexed among multiple processes",
// §1). The backend validates the state and flushes exactly its
// per-address-space structures (the TLBs, the bitmap/block caches and
// the PE modes' per-PE front tables);
// physically indexed and tagged caches (PWC/AVC, shard walker caches)
// keep their contents — lines of the old table are harmlessly distinct
// from the new table's and need no invalidation, one of the AVC's quiet
// advantages on context switches.
func (u *IOMMU) SwitchContext(st State) error {
	if err := u.be.SwitchContext(st); err != nil {
		return err
	}
	u.table = st.Table
	u.bm = st.Bitmap
	u.blocks = st.Blocks
	u.ctr.ContextSwitches++
	u.tr.Emit(obs.CompIOMMU, obs.EvCtxSwitch, 0, 0, u.ctr.ContextSwitches)
	return nil
}

// Translate validates/translates one access, allocating a fresh Plan.
func (u *IOMMU) Translate(va addr.VA, kind addr.AccessKind) Plan {
	var p Plan
	u.TranslateInto(va, kind, &p)
	return p
}

// NoPE marks an access issued by no particular processing element
// (host-side probes, the CPU and virtualization models). It always
// takes the backend's full path.
const NoPE = -1

// TranslateInto validates/translates one access into p, reusing p.MemRefs.
// It is TranslatePEInto with no issuing PE.
func (u *IOMMU) TranslateInto(va addr.VA, kind addr.AccessKind, p *Plan) {
	u.TranslatePEInto(NoPE, va, kind, p)
}

// TranslatePEInto validates/translates one access issued by processing
// element pe (>= 0, or NoPE) into p, reusing p.MemRefs. This is the hot
// path: the accelerator calls it for every memory request. The PE index
// lets a backend keep per-PE state that changes no result (DESIGN §8,
// "Per-PE AVC front table").
func (u *IOMMU) TranslatePEInto(pe int, va addr.VA, kind addr.AccessKind, p *Plan) {
	p.reset()
	u.ctr.Accesses++
	u.pe = pe
	u.be.TranslateInto(va, kind, p)
	// Every backend accumulates its walk-path memory references into
	// p.MemRefs (table walks, bitmap lines, block-table entries), so the
	// plan length is the per-translation walk-memref distribution for
	// every design uniformly.
	u.walkHist.Observe(uint64(len(p.MemRefs)))
}

// walkTable performs the hardware page walk, charging structure probes for
// cacheable levels and memory references for the rest.
func (u *IOMMU) walkTable(va addr.VA, p *Plan, cache *PTECache) {
	u.walkTableSkip(va, p, cache, 0)
}

// walkTableSkip is walkTable with the first skip root-side steps neither
// probed nor billed — SPARTA's partitioned walkers start at their shard's
// subtree, so the root radix level is resolved by the partition function
// instead of a dependent memory reference.
func (u *IOMMU) walkTableSkip(va addr.VA, p *Plan, cache *PTECache, skip int) {
	u.table.WalkInto(va, &u.walk)
	if u.cfg.Chaos != nil {
		u.injectWalkChaos(va)
	}
	steps := u.walk.Steps
	if skip > len(steps) {
		skip = len(steps)
	}
	var refs uint64
	for _, step := range steps[skip:] {
		if cache.Caches(step.Level) {
			p.ProbeCycles += u.cfg.ProbeCycles
			if cache.Lookup(step.EntryPA, step.Level) {
				continue
			}
			p.MemRefs = append(p.MemRefs, step.EntryPA)
			refs++
			cache.Insert(step.EntryPA, step.Level)
		} else {
			// Conventional walkers skip the PWC for L1 lines and go
			// straight to memory.
			p.MemRefs = append(p.MemRefs, step.EntryPA)
			refs++
		}
	}
	u.ctr.WalkMemRefs += refs
	u.tr.Emit(obs.CompIOMMU, obs.EvWalk, uint64(va), uint64(u.walk.PA), refs)
}

// injectWalkChaos rewrites the just-completed walk per the injector's
// decisions, simulating table damage without touching the (shared,
// read-only) table itself. Each call consumes a fixed draw sequence
// from the per-run injector, so a given seed injects at the same
// accesses in every run. The walk is already priced from u.walk.Steps,
// so a truncated subtree also shortens the billed walk, exactly as a
// real missing interior node would.
func (u *IOMMU) injectWalkChaos(va addr.VA) {
	inj := u.cfg.Chaos
	if inj.HitAt(chaos.SitePTETruncate, uint64(va)) {
		if len(u.walk.Steps) > 1 {
			keep := 1 + int(inj.Draw(uint64(len(u.walk.Steps)-1)))
			u.walk.Steps = u.walk.Steps[:keep]
		}
		u.walk.Outcome = pagetable.WalkFault
		u.walk.Fault = pagetable.FaultCorrupt
		return
	}
	if inj.HitAt(chaos.SitePTECorrupt, uint64(va)) {
		u.walk.Outcome = pagetable.WalkFault
		u.walk.Fault = pagetable.FaultCorrupt
		return
	}
	if u.walk.Outcome == pagetable.WalkPE && inj.HitAt(chaos.SitePEPermBad, uint64(va)) {
		u.walk.Outcome = pagetable.WalkFault
		u.walk.Fault = pagetable.FaultBadPE
	}
}

// finishTranslated applies the permission check and fills the plan.
func (u *IOMMU) finishTranslated(va addr.VA, pa addr.PA, perm addr.Perm, kind addr.AccessKind, p *Plan) {
	if !perm.Allows(kind) {
		u.fault(p, pagetable.FaultNone, va, pa)
		return
	}
	p.PA = pa
}

// walkFault faults the plan from the just-completed walk, localizing the
// event at the faulting VA and the physical address of the page-table
// entry the walk died on.
func (u *IOMMU) walkFault(p *Plan, va addr.VA) {
	var entryPA addr.PA
	if n := len(u.walk.Steps); n > 0 {
		entryPA = u.walk.Steps[n-1].EntryPA
	}
	u.fault(p, u.walk.Fault, va, entryPA)
}

// fault drops the access and records the exception. The trace event
// carries the faulting VA and, when available, the physical address the
// failure was detected at (the terminal walk entry, or the translated PA
// of a permission denial) so -trace output can localize the fault.
func (u *IOMMU) fault(p *Plan, kind pagetable.FaultKind, va addr.VA, pa addr.PA) {
	p.Fault = true
	p.FaultKind = kind
	p.OverlapData = false
	u.ctr.Faults++
	if kind == pagetable.FaultCorrupt || kind == pagetable.FaultBadPE {
		u.ctr.CorruptFaults++
	}
	u.tr.Emit(obs.CompIOMMU, obs.EvFault, uint64(va), uint64(pa), uint64(kind))
}
