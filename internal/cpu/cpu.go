// Package cpu models cDVM — the paper's Section 7 extension of
// Devirtualized Memory to CPUs — and reproduces Figure 10: VM overheads of
// memory-intensive CPU workloads under conventional 4 KB paging,
// transparent huge pages (THP, 2 MB) and cDVM.
//
// The paper instruments an Intel Xeon E5-2430 (64-entry L1 DTLB, 512-entry
// L2 DTLB) with hardware counters and BadgerTrap, then applies "a simple
// analytical model to conservatively estimate the VM overheads under
// cDVM, like past work". We do the same over a simulated machine: each
// workload is a synthetic address trace whose footprint and access mix
// match the published character of the benchmark (mcf and canneal chase
// pointers across hundreds of MB, cg and bt stride over large arrays,
// xsbench performs nearly uniform random lookups over GB-scale
// cross-section tables); the trace drives a two-level TLB hierarchy plus a
// hardware walker, and the analytical model converts stall cycles into the
// figure's overhead percentages.
package cpu

import (
	"fmt"

	"github.com/dvm-sim/dvm/internal/addr"
	"github.com/dvm-sim/dvm/internal/mmu"
	"github.com/dvm-sim/dvm/internal/osmodel"
	"github.com/dvm-sim/dvm/internal/pagetable"
	"github.com/dvm-sim/dvm/internal/prng"
)

// WorkloadSpec is one bar group of Figure 10.
type WorkloadSpec struct {
	// Name of the benchmark.
	Name string
	// Source suite, for documentation.
	Source string
	// Footprint is the randomly addressed data footprint in bytes.
	Footprint uint64
	// RandFrac is the fraction of accesses drawn uniformly from the
	// footprint; the rest stream sequentially (high spatial locality).
	RandFrac float64
	// HotFrac of the random accesses go to a HotBytes-sized hot set
	// (pointer-chasing workloads revisit hot structures).
	HotFrac  float64
	HotBytes uint64
	// SeqStride is the byte stride of the sequential stream (default
	// 16: several touches per cache line, one page crossing per 256
	// accesses).
	SeqStride uint64
	// StoreFrac is the fraction of accesses that are stores (default
	// 0.3), used by the cDVM store-overlap optimization (§7.1).
	StoreFrac float64
	// Accesses is the trace length.
	Accesses int
	// CyclesPerAccess is the baseline (ideal-VM) cost of one memory
	// instruction including cache effects — the analytical model's
	// denominator.
	CyclesPerAccess float64
	// Seed for trace generation.
	Seed int64
}

// Workloads is Figure 10's benchmark set. Footprints are the working sets
// the traces address (scaled to simulate in seconds; the TLB-reach to
// footprint ratios stay far below 1, the regime the paper measures).
var Workloads = []WorkloadSpec{
	{Name: "mcf", Source: "SPEC CPU2006", Footprint: 1700 << 20, RandFrac: 0.017, HotFrac: 0.40, HotBytes: 2 << 20, Accesses: 2_000_000, CyclesPerAccess: 4.5, Seed: 101},
	{Name: "bt", Source: "NAS Parallel Benchmarks", Footprint: 1300 << 20, RandFrac: 0.006, HotFrac: 0.45, HotBytes: 4 << 20, Accesses: 2_000_000, CyclesPerAccess: 5.5, Seed: 102},
	{Name: "cg", Source: "NAS Parallel Benchmarks", Footprint: 900 << 20, RandFrac: 0.0095, HotFrac: 0.40, HotBytes: 2 << 20, Accesses: 2_000_000, CyclesPerAccess: 5.0, Seed: 103},
	{Name: "canneal", Source: "PARSEC", Footprint: 1300 << 20, RandFrac: 0.014, HotFrac: 0.40, HotBytes: 4 << 20, Accesses: 2_000_000, CyclesPerAccess: 6.0, Seed: 104},
	{Name: "xsbench", Source: "XSBench", Footprint: 5600 << 20, RandFrac: 0.026, HotFrac: 0.05, HotBytes: 1 << 20, Accesses: 2_000_000, CyclesPerAccess: 4.0, Seed: 105},
}

// validate rejects specs the trace generator cannot draw from: an empty
// footprint or trace, a fraction outside [0,1], an empty or oversized
// hot set while hot draws are possible, and a sequential stride wider
// than the footprint.
func (s WorkloadSpec) validate() error {
	if s.Footprint == 0 || s.Accesses <= 0 {
		return fmt.Errorf("cpu: workload %q has empty footprint or trace", s.Name)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"RandFrac", s.RandFrac}, {"HotFrac", s.HotFrac}, {"StoreFrac", s.StoreFrac}} {
		if !(f.v >= 0 && f.v <= 1) {
			return fmt.Errorf("cpu: workload %q: %s %v outside [0,1]", s.Name, f.name, f.v)
		}
	}
	if s.RandFrac > 0 && s.HotFrac > 0 && (s.HotBytes == 0 || s.HotBytes > s.Footprint) {
		return fmt.Errorf("cpu: workload %q: HotBytes %d must be in (0, Footprint %d] when hot draws are possible", s.Name, s.HotBytes, s.Footprint)
	}
	if s.SeqStride > s.Footprint {
		return fmt.Errorf("cpu: workload %q: SeqStride %d exceeds Footprint %d", s.Name, s.SeqStride, s.Footprint)
	}
	return nil
}

// WorkloadByName finds a spec.
func WorkloadByName(name string) (WorkloadSpec, error) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return WorkloadSpec{}, fmt.Errorf("cpu: unknown workload %q", name)
}

// Config is the CPU MMU configuration (paper: Xeon E5-2430).
type Config struct {
	// L1TLBEntries / L1TLBWays: default 64 / 4.
	L1TLBEntries, L1TLBWays int
	// L2TLBEntries / L2TLBWays: default 512 / 8.
	L2TLBEntries, L2TLBWays int
	// L2TLBHitCycles is the added latency of an L2 TLB hit (default 7).
	L2TLBHitCycles uint64
	// ProbeCycles per PWC/AVC probe (default 1).
	ProbeCycles uint64
	// MemRefCycles is the cost of one page-walk memory reference that
	// misses the walker's dedicated cache (default 60 — a DRAM PTE
	// fetch; GB-scale random data traffic leaves little room for PTE
	// lines in the shared data caches).
	MemRefCycles uint64
	// StoreOverlap enables the paper's §7.1 cDVM store optimization:
	// under the write-allocate policy the cacheline fetch of a store is
	// launched in parallel with DAV, hiding the walk latency of store
	// accesses entirely (loads would need the preload support the
	// paper's methodology could not measure).
	StoreOverlap bool
}

func (c Config) withDefaults() Config {
	if c.L1TLBEntries == 0 {
		c.L1TLBEntries = 64
	}
	if c.L1TLBWays == 0 {
		c.L1TLBWays = 4
	}
	if c.L2TLBEntries == 0 {
		c.L2TLBEntries = 512
	}
	if c.L2TLBWays == 0 {
		c.L2TLBWays = 8
	}
	if c.L2TLBHitCycles == 0 {
		c.L2TLBHitCycles = 7
	}
	if c.ProbeCycles == 0 {
		c.ProbeCycles = 1
	}
	if c.MemRefCycles == 0 {
		c.MemRefCycles = 60
	}
	return c
}

// Scheme is a CPU memory-management configuration of Figure 10.
type Scheme int

// Schemes.
const (
	// Scheme4K is conventional VM with 4 KB pages.
	Scheme4K Scheme = iota
	// SchemeTHP is transparent huge pages (2 MB).
	SchemeTHP
	// SchemeCDVM is cDVM: PE page tables walked through an AVC.
	SchemeCDVM
)

// String implements fmt.Stringer.
func (s Scheme) String() string {
	switch s {
	case Scheme4K:
		return "4K"
	case SchemeTHP:
		return "THP"
	case SchemeCDVM:
		return "cDVM"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// Result is one workload's Figure 10 bar group.
type Result struct {
	Name string
	// Overhead[scheme] = page-walk stall cycles / baseline cycles.
	Overhead map[Scheme]float64
	// L2MissRate[scheme] is the combined TLB hierarchy miss rate.
	L2MissRate map[Scheme]float64
	// WalkCycles[scheme] is total walker stall cycles.
	WalkCycles map[Scheme]uint64
	// BaseCycles is the analytical baseline (ideal VM).
	BaseCycles float64
}

// Run measures one workload under all three schemes. The trace is
// open-loop: seeded from spec.Seed, it never reads simulator state. So
// one generator drives the three schemes' hierarchies in lockstep, and
// each access is generated once and priced three times.
func Run(spec WorkloadSpec, cfg Config) (Result, error) {
	res, _, err := run(spec, cfg)
	return res, err
}

// run is Run, also returning the schemes' hierarchies, indexed by
// Scheme, for tests that read their TLB counters.
func run(spec WorkloadSpec, cfg Config) (Result, []hierarchy, error) {
	cfg = cfg.withDefaults()
	res := Result{
		Name:       spec.Name,
		Overhead:   map[Scheme]float64{},
		L2MissRate: map[Scheme]float64{},
		WalkCycles: map[Scheme]uint64{},
	}
	if err := spec.validate(); err != nil {
		return res, nil, err
	}
	tables, heapBase, err := buildTables(spec)
	if err != nil {
		return res, nil, err
	}
	hs := make([]hierarchy, len(tables))
	for s := range hs {
		hs[s] = newHierarchy(cfg, Scheme(s), tables[s])
	}
	ls := lockstep{hs: hs}
	gen := newTraceGen(spec)
	gen.bind(heapBase)
	storeFrac := spec.StoreFrac
	if storeFrac == 0 {
		storeFrac = 0.3
	}
	for i := 0; i < spec.Accesses; i++ {
		va := gen.next()
		isStore := gen.rng.Float64() < storeFrac
		ls.access(va, isStore)
	}
	res.BaseCycles = float64(spec.Accesses) * spec.CyclesPerAccess
	for s, h := range hs {
		res.WalkCycles[Scheme(s)] = h.walkCycles
		res.L2MissRate[Scheme(s)] = h.l2.MissRate()
		res.Overhead[Scheme(s)] = float64(h.walkCycles) / res.BaseCycles
	}
	return res, hs, nil
}

// buildTables builds the workload's process and its page table under
// each scheme, indexed by Scheme, and returns the heap the trace
// addresses. The cDVM table is the 4K table compacted into PEs, derived
// from the 4K build rather than built a second time.
func buildTables(spec WorkloadSpec) (tables [3]*pagetable.Table, heapBase addr.VA, err error) {
	// Build the process: cDVM identity maps every segment (§7.2).
	sys, err := osmodel.NewSystem(nextPow2(spec.Footprint * 2))
	if err != nil {
		return tables, 0, err
	}
	proc := sys.NewProcess(osmodel.Policy{IdentityMapHeap: true, IdentityMapAll: true, Seed: spec.Seed})
	if _, err := proc.LoadProgram(osmodel.Program{CodeBytes: 2 << 20, DataBytes: 1 << 20, BSSBytes: 1 << 20}); err != nil {
		return tables, 0, err
	}
	heap, _, err := proc.Mmap(spec.Footprint, addr.ReadWrite)
	if err != nil {
		return tables, 0, err
	}
	if tables[Scheme4K], err = proc.BuildCanonicalTable(false); err != nil {
		return tables, 0, err
	}
	if tables[SchemeTHP], err = proc.BuildHugeTable(addr.PageSize2M); err != nil {
		return tables, 0, err
	}
	tables[SchemeCDVM], err = tables[Scheme4K].Compacted()
	return tables, heap.Start, err
}

// pageSize is the page size a scheme's TLBs cache.
func (s Scheme) pageSize() uint64 {
	if s == SchemeTHP {
		return addr.PageSize2M
	}
	return addr.PageSize4K
}

// hierarchy is one scheme's TLB hierarchy and hardware walker, with the
// walk stall cycles it has charged so far.
type hierarchy struct {
	table      *pagetable.Table
	pageSize   uint64
	l1, l2     *mmu.TLB
	walker     *mmu.PTECache
	probe      uint64 // cycles per walker-cache probe
	memRef     uint64 // cycles per walk reference that misses it
	hideStores bool   // §7.1 store overlap (cDVM only)
	walkCycles uint64
}

func newHierarchy(cfg Config, scheme Scheme, table *pagetable.Table) hierarchy {
	h := hierarchy{
		table:      table,
		pageSize:   scheme.pageSize(),
		probe:      cfg.ProbeCycles,
		memRef:     cfg.MemRefCycles,
		hideStores: scheme == SchemeCDVM && cfg.StoreOverlap,
	}
	h.l1 = mmu.MustNewTLB(mmu.TLBConfig{Entries: cfg.L1TLBEntries, Ways: cfg.L1TLBWays, PageSize: h.pageSize})
	h.l2 = mmu.MustNewTLB(mmu.TLBConfig{Entries: cfg.L2TLBEntries, Ways: cfg.L2TLBWays, PageSize: h.pageSize})
	if scheme == SchemeCDVM {
		h.walker = mmu.MustNewPTECache(mmu.DefaultAVCConfig())
	} else {
		h.walker = mmu.MustNewPTECache(mmu.DefaultPWCConfig())
	}
	return h
}

// lockstep prices one trace through several hierarchies at once. An
// access to the 4 KB page of the previous access, which left that page
// resident in every L1, is an L1 hit on each L1's most recently used
// entry. Its probe would only restamp an entry already holding its
// set's newest LRU stamp, so skipping it changes no victim, no L2 state
// and no walk.
type lockstep struct {
	hs       []hierarchy
	walkRes  pagetable.WalkResult
	page     uint64 // 4 KB page number of the previous access
	resident bool   // the previous access left the page in every L1
}

func (l *lockstep) access(va addr.VA, isStore bool) {
	page := va.PageNumber()
	if l.resident && page == l.page {
		return
	}
	l.page, l.resident = page, true
	for i := range l.hs {
		if !l.hs[i].access(va, isStore, &l.walkRes) {
			l.resident = false
		}
	}
}

// access translates one trace access through the hierarchy, charging
// any page walk's stall cycles. It reports whether va's page is
// resident in the L1 afterwards, which fails only on a faulting walk.
func (h *hierarchy) access(va addr.VA, isStore bool, walkRes *pagetable.WalkResult) (resident bool) {
	if _, _, hit := h.l1.Lookup(va); hit {
		return true
	}
	if pa, perm, hit := h.l2.Lookup(va); hit {
		// An STLB hit is not a page walk; the hardware counter the
		// paper reads (walk duration) excludes it, so the analytical
		// model does too.
		pageBase := addr.VA(addr.AlignDown(uint64(va), h.pageSize))
		h.l1.Insert(pageBase, pa-addr.PA(uint64(va)-uint64(pageBase)), perm)
		return true
	}
	// Hardware page walk. Under the §7.1 store optimization, a cDVM
	// store's cacheline fetch overlaps DAV: its walk cycles vanish from
	// the critical path (the walk still happens and still warms the
	// AVC).
	h.table.WalkInto(va, walkRes)
	var thisWalk uint64
	for _, step := range walkRes.Steps {
		if h.walker.Caches(step.Level) {
			thisWalk += h.probe
			if h.walker.Lookup(step.EntryPA, step.Level) {
				continue
			}
			thisWalk += h.memRef
			h.walker.Insert(step.EntryPA, step.Level)
		} else {
			thisWalk += h.memRef
		}
	}
	if !(h.hideStores && isStore) {
		h.walkCycles += thisWalk
	}
	if walkRes.Outcome == pagetable.WalkFault {
		return false
	}
	base := addr.VA(addr.AlignDown(uint64(va), h.pageSize))
	paBase := walkRes.PA - addr.PA(uint64(va)-uint64(base))
	h.l2.Insert(base, paBase, walkRes.Perm)
	h.l1.Insert(base, paBase, walkRes.Perm)
	return true
}

// traceGen produces the synthetic address stream.
type traceGen struct {
	spec   WorkloadSpec
	rng    *prng.Source
	base   addr.VA
	cursor uint64
}

func newTraceGen(spec WorkloadSpec) *traceGen {
	return &traceGen{spec: spec, rng: prng.New(spec.Seed), base: 0}
}

// bind sets the VA region the trace addresses.
func (t *traceGen) bind(base addr.VA) { t.base = base }

func (t *traceGen) next() addr.VA {
	s := &t.spec
	if t.rng.Float64() < s.RandFrac {
		if t.rng.Float64() < s.HotFrac {
			return t.base + addr.VA(t.rng.Uint64()%s.HotBytes)
		}
		return t.base + addr.VA(t.rng.Uint64()%s.Footprint)
	}
	stride := s.SeqStride
	if stride == 0 {
		stride = 16
	}
	// validate keeps stride <= Footprint, so one subtraction wraps the
	// cursor exactly as a modulo would.
	if t.cursor += stride; t.cursor >= s.Footprint {
		t.cursor -= s.Footprint
	}
	return t.base + addr.VA(t.cursor)
}

// nextPow2 rounds up to a power of two.
func nextPow2(n uint64) uint64 {
	p := uint64(1)
	for p < n {
		p <<= 1
	}
	return p
}
