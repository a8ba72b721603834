// Package virt models DVM in virtualized environments — the paper's
// Section 5 "Virtual Machines" discussion, built out and quantified.
//
// Under virtualization every memory access needs two translations: guest
// virtual (gVA) to guest physical (gPA) by the guest OS's page table, and
// gPA to system physical (sPA) by the hypervisor's nested table. A
// conventional two-dimensional walk must translate the guest-physical
// address of *every guest page-table entry* through the nested table, so a
// cold 4-level × 4-level walk costs up to 24 memory references.
//
// The paper proposes three ways DVM collapses this:
//
//   - Guest DVM:  the guest identity maps gVA==gPA; the guest dimension
//     becomes Devirtualized Access Validation over a Permission Entry
//     table, leaving a one-dimensional nested walk.
//   - Host DVM:   the hypervisor identity maps gPA==sPA; guest page-table
//     entries can be fetched directly and the nested dimension disappears,
//     leaving a one-dimensional guest walk.
//   - Full DVM:   gVA==gPA==sPA; a single DAV validates the access — the
//     paper's "broader impact" endpoint, translation cost at
//     unvirtualized levels.
//
// The model composes two pagetable.Tables with per-dimension walker caches
// and a nested TLB, and reports per-access walk costs for each scheme.
package virt

import (
	"fmt"

	"github.com/dvm-sim/dvm/internal/addr"
	"github.com/dvm-sim/dvm/internal/mmu"
	"github.com/dvm-sim/dvm/internal/pagetable"
	"github.com/dvm-sim/dvm/internal/prng"
)

// Scheme enumerates the virtualized translation schemes.
type Scheme int

// Schemes, in decreasing walk dimensionality.
const (
	// SchemeNested2D is conventional virtualization: guest 4 KB paging
	// over a 4 KB nested table (two-dimensional walks).
	SchemeNested2D Scheme = iota
	// SchemeGuestDVM identity maps gVA==gPA in the guest (PE table +
	// AVC); the nested dimension still translates.
	SchemeGuestDVM
	// SchemeHostDVM identity maps gPA==sPA in the hypervisor (PE table +
	// AVC); the guest dimension still translates.
	SchemeHostDVM
	// SchemeFullDVM identity maps gVA==gPA==sPA: one DAV.
	SchemeFullDVM
)

// String implements fmt.Stringer.
func (s Scheme) String() string {
	switch s {
	case SchemeNested2D:
		return "Nested-2D"
	case SchemeGuestDVM:
		return "Guest-DVM"
	case SchemeHostDVM:
		return "Host-DVM"
	case SchemeFullDVM:
		return "Full-DVM"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// AllSchemes lists every scheme.
var AllSchemes = []Scheme{SchemeNested2D, SchemeGuestDVM, SchemeHostDVM, SchemeFullDVM}

// Config shapes the virtual machine model.
type Config struct {
	// HeapBytes is the guest workload's heap (default 64 MB).
	HeapBytes uint64
	// GuestHeapGVA is the guest-virtual heap base for non-identity
	// guests (default 1 GB).
	GuestHeapGVA addr.VA
	// GuestOffset shifts gPA from gVA for the conventional guest
	// dimension (default 512 MB).
	GuestOffset uint64
	// HostOffset shifts sPA from gPA for the conventional nested
	// dimension (default 4 GB).
	HostOffset uint64
	// TLBEntries sizes the nested (gVA -> sPA) TLB (default 8, matching
	// the scaled accelerator TLB of the main experiments).
	TLBEntries int
	// ProbeCycles per structure probe (default 1); MemRefCycles per walk
	// memory reference (default 60).
	ProbeCycles  uint64
	MemRefCycles uint64
}

func (c Config) withDefaults() Config {
	if c.HeapBytes == 0 {
		c.HeapBytes = 64 << 20
	}
	if c.GuestHeapGVA == 0 {
		c.GuestHeapGVA = 1 << 30
	}
	if c.GuestOffset == 0 {
		c.GuestOffset = 512 << 20
	}
	if c.HostOffset == 0 {
		c.HostOffset = 4 << 30
	}
	if c.TLBEntries == 0 {
		c.TLBEntries = 8
	}
	if c.ProbeCycles == 0 {
		c.ProbeCycles = 1
	}
	if c.MemRefCycles == 0 {
		c.MemRefCycles = 60
	}
	return c
}

// Machine is a virtualized machine under one scheme.
type Machine struct {
	cfg    Config
	scheme Scheme

	guest *pagetable.Table // gVA -> gPA
	host  *pagetable.Table // gPA -> sPA (nil for SchemeFullDVM)

	// heapGVA is where the workload's heap lives in guest-virtual space.
	heapGVA addr.VA

	tlb        *mmu.TLB      // nested TLB: gVA -> sPA
	guestCache *mmu.PTECache // caches guest page-table lines (by sPA)
	hostCache  *mmu.PTECache // caches nested page-table lines

	guestWalk pagetable.WalkResult
	hostWalk  pagetable.WalkResult

	// ptPages memoizes the host walks of the guest table's own pages:
	// ptPages[i] is the walk of the 4 KB page at gPA ptBase + i*4 KB.
	// The host table is final once built, so each such walk reads the
	// same entries every time; only data gPAs are walked per access.
	ptBase  addr.PA
	ptPages []hostPage

	ctr Counters
}

// hostPage is one memoized host walk: the entries it reads, and the
// system-physical base of the 4 KB page it translates.
type hostPage struct {
	steps []pagetable.WalkStep
	spa   addr.PA
}

// Counters aggregates translation activity.
type Counters struct {
	// Accesses translated.
	Accesses uint64
	// TLBHits in the nested TLB.
	TLBHits uint64
	// GuestRefs / HostRefs are walk memory references per dimension.
	GuestRefs uint64
	HostRefs  uint64
	// Faults (should be zero for in-bounds traces).
	Faults uint64
}

// NewMachine builds the guest and nested tables for the scheme.
func NewMachine(scheme Scheme, cfg Config) (*Machine, error) {
	cfg = cfg.withDefaults()
	m := &Machine{cfg: cfg, scheme: scheme}
	m.tlb = mmu.MustNewTLB(mmu.TLBConfig{Entries: cfg.TLBEntries, PageSize: addr.PageSize4K})

	guestIdentity := scheme == SchemeGuestDVM || scheme == SchemeFullDVM
	hostIdentity := scheme == SchemeHostDVM || scheme == SchemeFullDVM

	// Guest dimension: map the heap gVA -> gPA.
	m.guest = pagetable.MustNew(pagetable.Config{})
	var heapGPA addr.PA
	if guestIdentity {
		m.heapGVA = addr.VA(cfg.GuestOffset) // identity: gVA == gPA, placed at the "physical" base
		heapGPA = addr.PA(m.heapGVA)
	} else {
		m.heapGVA = cfg.GuestHeapGVA
		heapGPA = addr.PA(uint64(cfg.GuestHeapGVA) + cfg.GuestOffset)
	}
	if err := m.guest.MapRange(addr.VRange{Start: m.heapGVA, Size: cfg.HeapBytes}, heapGPA, addr.ReadWrite, addr.PageSize4K); err != nil {
		return nil, err
	}
	if guestIdentity {
		var err error
		if m.guest, err = m.guest.Compacted(); err != nil {
			return nil, err
		}
		m.guestCache = mmu.MustNewPTECache(mmu.DefaultAVCConfig())
	} else {
		m.guestCache = mmu.MustNewPTECache(mmu.DefaultPWCConfig())
	}

	if scheme == SchemeFullDVM {
		// gVA == gPA == sPA: no nested dimension at all.
		return m, nil
	}

	// Nested dimension: the hypervisor must map every guest-physical
	// region the walker or the data can touch — the heap's gPAs and the
	// guest page table's own pages.
	m.host = pagetable.MustNew(pagetable.Config{})
	mapHost := func(gpa addr.PA, size uint64) error {
		spa := gpa
		if !hostIdentity {
			spa = gpa + addr.PA(cfg.HostOffset)
		}
		return m.host.MapRange(addr.VRange{Start: addr.VA(gpa), Size: size}, spa, addr.ReadWrite, addr.PageSize4K)
	}
	if err := mapHost(heapGPA, cfg.HeapBytes); err != nil {
		return nil, err
	}
	// Guest page-table pages: their simulated gPAs live in the guest
	// table's node region; cover it generously, aligned out to the
	// identity granule so host-side PE folding works.
	stats, err := m.guest.SizeStats()
	if err != nil {
		return nil, err
	}
	ptBase := m.guest.Root().PA.PageDown()
	ptSize := addr.AlignUp(uint64(stats.Nodes)*pagetable.NodeBytes, 128<<10)
	if err := mapHost(ptBase, ptSize); err != nil {
		return nil, err
	}
	if hostIdentity {
		if m.host, err = m.host.Compacted(); err != nil {
			return nil, err
		}
		m.hostCache = mmu.MustNewPTECache(mmu.DefaultAVCConfig())
	} else {
		m.hostCache = mmu.MustNewPTECache(mmu.DefaultPWCConfig())
	}
	m.ptBase = ptBase
	m.ptPages = make([]hostPage, ptSize/addr.PageSize4K)
	for i := range m.ptPages {
		gpa := ptBase + addr.PA(uint64(i)*addr.PageSize4K)
		m.host.WalkInto(addr.VA(gpa), &m.hostWalk)
		if m.hostWalk.Outcome == pagetable.WalkFault {
			return nil, fmt.Errorf("virt: guest page-table page %#x has no host mapping", uint64(gpa))
		}
		m.ptPages[i] = hostPage{steps: append([]pagetable.WalkStep(nil), m.hostWalk.Steps...), spa: m.hostWalk.PA}
	}
	return m, nil
}

// Scheme returns the machine's scheme.
func (m *Machine) Scheme() Scheme { return m.scheme }

// Counters returns the accumulated counters.
func (m *Machine) Counters() Counters { return m.ctr }

// Plan is the timing outcome of one virtualized translation.
type Plan struct {
	// SPA is the final system-physical address.
	SPA addr.PA
	// Fault reports a failed translation/validation.
	Fault bool
	// FaultKind refines Fault with the walker's typed classification
	// (FaultCorrupt/FaultBadPE for structurally damaged tables,
	// FaultUnmapped for ordinary page faults, FaultNone for a plain
	// permission denial on an otherwise valid translation).
	FaultKind pagetable.FaultKind
	// ProbeCycles and MemRefs are the serial structure probes and walk
	// memory references incurred.
	ProbeCycles uint64
	MemRefs     int
}

// Cycles prices the plan with the machine's latencies.
func (m *Machine) Cycles(p Plan) uint64 {
	return p.ProbeCycles + uint64(p.MemRefs)*m.cfg.MemRefCycles
}

// Translate resolves one guest-virtual access.
func (m *Machine) Translate(gva addr.VA, kind addr.AccessKind) Plan {
	var p Plan
	m.ctr.Accesses++
	// Nested TLB: caches the full gVA -> sPA composition.
	p.ProbeCycles += m.cfg.ProbeCycles
	if spa, perm, hit := m.tlb.Lookup(gva); hit {
		m.ctr.TLBHits++
		if !perm.Allows(kind) {
			p.Fault = true
			m.ctr.Faults++
			return p
		}
		p.SPA = spa
		return p
	}
	// Guest dimension.
	m.guest.WalkInto(gva, &m.guestWalk)
	for _, step := range m.guestWalk.Steps {
		// The guest entry lives at a guest-physical address; fetching
		// it requires the nested dimension (unless the host identity
		// maps, in which case the entry's sPA equals its gPA and the
		// fetch proceeds directly).
		entrySPA, fault := m.resolveHost(addr.VA(step.EntryPA), &p)
		if fault {
			p.Fault = true
			p.FaultKind = m.hostWalk.Fault
			m.ctr.Faults++
			return p
		}
		// Fetch the guest entry itself (cached by the guest-dimension
		// walker cache, indexed by system-physical line).
		if m.guestCache.Caches(step.Level) {
			p.ProbeCycles += m.cfg.ProbeCycles
			if !m.guestCache.Lookup(entrySPA, step.Level) {
				p.MemRefs++
				m.ctr.GuestRefs++
				m.guestCache.Insert(entrySPA, step.Level)
			}
		} else {
			p.MemRefs++
			m.ctr.GuestRefs++
		}
	}
	if m.guestWalk.Outcome == pagetable.WalkFault || !m.guestWalk.Perm.Allows(kind) {
		p.Fault = true
		p.FaultKind = m.guestWalk.Fault
		m.ctr.Faults++
		return p
	}
	gpa := m.guestWalk.PA
	// Final data translation gPA -> sPA.
	spa, fault := m.resolveHost(addr.VA(gpa), &p)
	if fault {
		p.Fault = true
		p.FaultKind = m.hostWalk.Fault
		m.ctr.Faults++
		return p
	}
	p.SPA = spa
	m.tlb.Insert(gva.PageDown(), spa.PageDown(), m.guestWalk.Perm)
	return p
}

// resolveHost translates a guest-physical address to system-physical,
// charging the nested dimension's walk costs into p. A gPA in the guest
// table's pages replays its memoized walk; any other gPA is walked.
func (m *Machine) resolveHost(gpaAsVA addr.VA, p *Plan) (addr.PA, bool) {
	if m.host == nil {
		// Full DVM: gPA == sPA by construction.
		return addr.PA(gpaAsVA), false
	}
	if i := (uint64(gpaAsVA) - uint64(m.ptBase)) / addr.PageSize4K; i < uint64(len(m.ptPages)) {
		pg := &m.ptPages[i]
		m.chargeHost(pg.steps, p)
		return pg.spa + addr.PA(uint64(gpaAsVA)&(addr.PageSize4K-1)), false
	}
	m.host.WalkInto(gpaAsVA, &m.hostWalk)
	m.chargeHost(m.hostWalk.Steps, p)
	if m.hostWalk.Outcome == pagetable.WalkFault {
		return 0, true
	}
	return m.hostWalk.PA, false
}

// chargeHost prices a host walk's entry reads through the nested
// dimension's walker cache.
func (m *Machine) chargeHost(steps []pagetable.WalkStep, p *Plan) {
	for _, step := range steps {
		if m.hostCache.Caches(step.Level) {
			p.ProbeCycles += m.cfg.ProbeCycles
			if !m.hostCache.Lookup(step.EntryPA, step.Level) {
				p.MemRefs++
				m.ctr.HostRefs++
				m.hostCache.Insert(step.EntryPA, step.Level)
			}
		} else {
			p.MemRefs++
			m.ctr.HostRefs++
		}
	}
}

// Result is the outcome of a measurement run for one scheme.
type Result struct {
	Scheme Scheme
	// AvgMemRefs is the mean walk memory references per access.
	AvgMemRefs float64
	// AvgCycles is the mean translation latency per access.
	AvgCycles float64
	// TLBMissRate of the nested TLB.
	TLBMissRate float64
	// ColdWalkRefs is the cost of the very first (all-cold) walk.
	ColdWalkRefs int
}

// Measure drives a synthetic access trace (uniform random over the heap,
// the TLB-hostile regime) through a fresh machine for the scheme.
func Measure(scheme Scheme, cfg Config, accesses int, seed int64) (Result, error) {
	res, _, err := measure(scheme, cfg, accesses, seed)
	return res, err
}

// measure is Measure, also returning the machine it drove, for tests
// that read its counters.
func measure(scheme Scheme, cfg Config, accesses int, seed int64) (Result, *Machine, error) {
	m, err := NewMachine(scheme, cfg)
	if err != nil {
		return Result{}, nil, err
	}
	c := m.cfg
	rng := prng.New(seed)
	res := Result{Scheme: scheme}
	var totalRefs, totalCycles uint64
	for i := 0; i < accesses; i++ {
		gva := m.heapGVA + addr.VA(rng.Uint64()%c.HeapBytes)
		p := m.Translate(gva, addr.Read)
		if p.Fault {
			return res, m, fmt.Errorf("virt: unexpected %v fault at %#x under %v", p.FaultKind, uint64(gva), scheme)
		}
		if i == 0 {
			res.ColdWalkRefs = p.MemRefs
		}
		totalRefs += uint64(p.MemRefs)
		totalCycles += m.Cycles(p)
	}
	n := float64(accesses)
	res.AvgMemRefs = float64(totalRefs) / n
	res.AvgCycles = float64(totalCycles) / n
	ctr := m.Counters()
	res.TLBMissRate = 1 - float64(ctr.TLBHits)/float64(ctr.Accesses)
	return res, m, nil
}
