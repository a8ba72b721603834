// Package core assembles the full DVM simulation stack — OS model, page
// tables, IOMMU, memory system, accelerator — into the seven
// memory-management configurations the paper evaluates, and exposes the
// experiment entry points the reproduction harness (cmd/dvmrepro,
// bench_test.go and package dvm) is built on.
package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"github.com/dvm-sim/dvm/internal/accel"
	"github.com/dvm-sim/dvm/internal/addr"
	"github.com/dvm-sim/dvm/internal/chaos"
	"github.com/dvm-sim/dvm/internal/energy"
	"github.com/dvm-sim/dvm/internal/graph"
	"github.com/dvm-sim/dvm/internal/memsys"
	"github.com/dvm-sim/dvm/internal/mmu"
	"github.com/dvm-sim/dvm/internal/obs"
	"github.com/dvm-sim/dvm/internal/osmodel"
	"github.com/dvm-sim/dvm/internal/pagetable"
	"github.com/dvm-sim/dvm/internal/runner"
)

// Mode re-exports the configuration enumeration for callers of this
// package.
type Mode = mmu.Mode

// The evaluated configurations, in the paper's presentation order, plus
// the registered extra designs (SPARTA, VBI).
const (
	ModeConv4K    = mmu.ModeConv4K
	ModeConv2M    = mmu.ModeConv2M
	ModeConv1G    = mmu.ModeConv1G
	ModeDVMBM     = mmu.ModeDVMBM
	ModeDVMPE     = mmu.ModeDVMPE
	ModeDVMPEPlus = mmu.ModeDVMPEPlus
	ModeIdeal     = mmu.ModeIdeal
	ModeSPARTA    = mmu.ModeSPARTA
	ModeVBI       = mmu.ModeVBI
)

// AllModes lists the paper's seven modes, Ideal last.
var AllModes = mmu.AllModes

// RegisteredModes, ExtraModes, ModeNames and ModeByName re-export the
// mmu backend registry for the CLI and report layers: the full mode list
// (paper + extras, presentation order), the non-paper extras, the
// canonical name vocabulary and case-insensitive name/alias resolution.
var (
	RegisteredModes = mmu.RegisteredModes
	ExtraModes      = mmu.ExtraModes
	ModeNames       = mmu.ModeNames
	ModeByName      = mmu.ModeByName
)

// SystemConfig sets the simulated machine (defaults = the paper's Table 2).
type SystemConfig struct {
	// MemBytes is the physical memory size (default 32 GB).
	MemBytes uint64
	// TLBEntries sizes the IOMMU TLB (default 128). Scaled-hardware
	// experiments shrink it together with the workload (DESIGN.md §6).
	TLBEntries int
	// AVC / PWC override the cache geometries (zero = paper defaults).
	AVC mmu.PTECacheConfig
	PWC mmu.PTECacheConfig
	// PEs / MLP shape the accelerator (defaults 8 / 8).
	PEs int
	MLP int
	// PEFields overrides the Permission Entry fan-out (default 16);
	// the PE-fan-out ablation sweeps it.
	PEFields int
	// Memory overrides the DRAM model (zero = 4 channels, 51.2 GB/s).
	Memory memsys.Config
	// Seed drives layout randomization.
	Seed int64
	// Tracer, when non-nil, receives typed simulation events (DAV
	// checks, fills/evictions, walks, faults) from every structure of
	// the run. Tracing only records; results are unchanged.
	Tracer *obs.Tracer
	// Spans, when non-nil, records wall-clock phase spans (cell
	// execution, page-table builds, timing replay) for Perfetto export.
	// Spans are a debugging artifact: wall time is nondeterministic, so
	// they never feed results or metrics.
	Spans *obs.SpanRecorder
	// Workers is the shared extra-worker pool RunModesCtx's cell-level
	// -j workers hold tokens from — the same pool PrepareB lends to
	// parallel CSR builds — so one -j value bounds a whole invocation's
	// concurrency. Nil runs every cell strictly sequentially; either
	// way results are byte-identical (DESIGN.md §9).
	Workers *runner.Budget
	// Chaos, when enabled, threads a deterministic fault injector
	// through the run: allocation failures in the OS model, simulated
	// page-table corruption in the IOMMU walk path, and memory-latency
	// spikes. Each (workload, mode) run derives its own injector from
	// Chaos.Seed and the run's labels, so the injected fault sequence is
	// identical at any -j. Chaos-enabled runs bypass the shared machine
	// and page-table caches — injection must never leak into a
	// concurrent clean run — and publish chaos.* counters into the
	// run's metrics snapshot. Nil or rate-0 is exactly the clean path.
	Chaos *chaos.Config
}

func (c SystemConfig) withDefaults() SystemConfig {
	if c.MemBytes == 0 {
		c.MemBytes = 32 << 30
	}
	if c.TLBEntries == 0 {
		c.TLBEntries = 128
	}
	return c
}

// Workload names one cell of the evaluation matrix.
type Workload struct {
	// Algorithm is BFS, PageRank, SSSP or CF.
	Algorithm string
	// Dataset is the Table 3 input.
	Dataset graph.DatasetSpec
	// Scale shrinks the dataset (1 = paper size); see DESIGN.md §6.
	Scale float64
	// PageRankIters bounds PageRank's iterations (default 3); CF always
	// runs one sweep.
	PageRankIters int
	// Seed drives graph generation.
	Seed int64
}

// ProgramFor returns the accelerator program for the workload.
func (w Workload) ProgramFor() (accel.Program, error) {
	switch w.Algorithm {
	case "BFS":
		return accel.BFS(0), nil
	case "SSSP":
		return accel.SSSP(0), nil
	case "PageRank":
		iters := w.PageRankIters
		if iters == 0 {
			iters = 3
		}
		return accel.PageRank(iters), nil
	case "CF":
		return accel.CF(1), nil
	default:
		return accel.Program{}, fmt.Errorf("core: unknown algorithm %q", w.Algorithm)
	}
}

// Prepared is a generated workload ready to run under any mode.
//
// A Prepared also caches the deterministic machine state its runs share:
// the OS process and heap layout per (MemBytes, Seed), and the built page
// tables per table kind. Page tables are read-only during a run (the
// walker and the permission bitmap never write them), so concurrent mode
// runs share one table instead of each rebuilding it — byte-identical
// results, a fraction of the setup cost. The cache is internally locked;
// a Prepared may be shared across goroutines.
type Prepared struct {
	Workload Workload
	G        *graph.Graph
	Prog     accel.Program

	mu    sync.Mutex
	state map[machineKey]*machineState
}

// machineKey identifies the deterministic inputs of process + layout
// construction; everything else in SystemConfig (TLB/AVC geometry, PE
// count...) only shapes the per-run hardware, not the address space.
type machineKey struct {
	memBytes uint64
	seed     int64
}

// tableKey identifies one distinct page table a workload can need, keyed
// by the registered descriptor's declared table need: every
// TableCanonical mode (Conv4K, DVM-BM, SPARTA, VBI) shares the same 4K
// canonical table, TableHuge splits by page size, TablePE by PE fan-out.
type tableKey struct {
	need     mmu.TableNeed
	pageSize uint64 // TableHuge only; 0 otherwise
	peFields int    // TablePE only; 0 otherwise
}

// machineState is the cached machine for one machineKey. Tables build
// under per-key single-flight entries rather than one big lock, so -j
// workers needing *different* tables (the 2M, 1G, canonical and PE
// builds of one workload) construct them concurrently — each build only
// reads the immutable process state.
type machineState struct {
	proc       *osmodel.Process
	lay        accel.Layout
	mu         sync.Mutex // guards the tables map, not the builds
	tables     map[tableKey]*tableEntry
	bmOnce     sync.Once
	bm         *mmu.PermBitmap // DVM-BM bitmap, built once on first use
	blocksOnce sync.Once
	blocks     *mmu.BlockTable // VBI block table, built once on first use
}

// tableEntry is the single-flight slot for one page table: whoever
// arrives first builds inside the Once; everyone else blocks only on
// that same table, never on sibling builds.
type tableEntry struct {
	once  sync.Once
	table *pagetable.Table
	err   error
}

// machine returns (building on first use) the cached process and layout
// for cfg. cfg must already have defaults applied.
func (p *Prepared) machine(cfg SystemConfig) (*machineState, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	key := machineKey{memBytes: cfg.MemBytes, seed: cfg.Seed}
	if st, ok := p.state[key]; ok {
		return st, nil
	}
	st, err := p.newMachine(cfg, nil)
	if err != nil {
		return nil, err
	}
	if p.state == nil {
		p.state = make(map[machineKey]*machineState)
	}
	p.state[key] = st
	return st, nil
}

// stateFor returns (building on first use) the OS-model translation state
// the mode's registered descriptor declares — the shared page table, the
// DVM-BM permission bitmap and/or the VBI block table. Table builds are
// single-flight per table key — -j workers racing on the same cell never
// build the same table twice, and workers needing different tables build
// them in parallel instead of queueing on one lock.
func (p *Prepared) stateFor(st *machineState, mode Mode, peFields int, spans *obs.SpanRecorder) (mmu.State, error) {
	d, ok := mmu.DescriptorOf(mode)
	if !ok {
		return mmu.State{}, fmt.Errorf("core: unknown mode %v", mode)
	}
	var out mmu.State
	if d.Table != mmu.TableNone {
		key := tableKey{need: d.Table}
		switch d.Table {
		case mmu.TableHuge:
			key.pageSize = d.PageSize
		case mmu.TablePE:
			if peFields == 0 {
				peFields = pagetable.DefaultPEFields
			}
			key.peFields = peFields
		}
		tbl, err := st.table(key, d.Slug, spans)
		if err != nil {
			return mmu.State{}, err
		}
		out.Table = tbl
	}
	if d.NeedsBitmap {
		st.bmOnce.Do(func() {
			st.bm = mmu.NewPermBitmap()
			st.proc.ForEachIdentityPage(st.bm.Set)
		})
		out.Bitmap = st.bm
	}
	if d.NeedsBlocks {
		st.blocksOnce.Do(func() {
			bt := mmu.NewBlockTable()
			st.proc.ForEachBlock(bt.Add)
			bt.Seal()
			st.blocks = bt
		})
		out.Blocks = st.blocks
	}
	return out, nil
}

// table returns (building on first use) the page table for key. The
// build span is named after the mode (slug) whose run arrived first;
// sibling modes sharing the table block on the Once and show no build
// span of their own. A PE table is derived from the canonical 4K entry,
// which a PE build that arrives first builds inside its own span.
func (st *machineState) table(key tableKey, slug string, spans *obs.SpanRecorder) (*pagetable.Table, error) {
	st.mu.Lock()
	e, ok := st.tables[key]
	if !ok {
		e = &tableEntry{}
		st.tables[key] = e
	}
	st.mu.Unlock()
	e.once.Do(func() {
		sp := spans.Begin("ptbuild:" + slug)
		defer sp.End()
		switch key.need {
		case mmu.TableHuge:
			e.table, e.err = st.proc.BuildHugeTable(key.pageSize)
		case mmu.TablePE:
			std, err := st.table(tableKey{need: mmu.TableCanonical}, slug, spans)
			if err != nil {
				e.err = err
				return
			}
			e.table, e.err = derivePETable(std, key.peFields)
		default:
			e.table, e.err = st.proc.BuildCanonicalTable(false)
		}
	})
	return e.table, e.err
}

// Prepare generates the dataset once; runs under different modes share it.
func Prepare(w Workload) (*Prepared, error) {
	return PrepareB(w, nil)
}

// PrepareB is Prepare with a shared worker budget: the deterministic
// parts of dataset generation (the CSR counting sort) borrow workers
// from b, while the RNG edge streams stay sequential — the Prepared is
// bit-identical at every budget population.
func PrepareB(w Workload, b *runner.Budget) (*Prepared, error) {
	w = w.normalized()
	prog, err := w.check()
	if err != nil {
		return nil, err
	}
	g, err := w.Dataset.GenerateB(w.Scale, w.Seed, b)
	if err != nil {
		return nil, err
	}
	return &Prepared{Workload: w, G: g, Prog: prog}, nil
}

// normalized applies workload defaulting (Scale 0 means paper scale).
func (w Workload) normalized() Workload {
	if w.Scale == 0 {
		w.Scale = 1
	}
	return w
}

// check resolves the workload's program and validates the
// algorithm/dataset pairing.
func (w Workload) check() (accel.Program, error) {
	prog, err := w.ProgramFor()
	if err != nil {
		return prog, err
	}
	if w.Algorithm == "CF" && !w.Dataset.Bipartite {
		return prog, fmt.Errorf("core: CF needs a bipartite dataset, got %s", w.Dataset.Name)
	}
	if w.Algorithm != "CF" && w.Dataset.Bipartite {
		return prog, fmt.Errorf("core: %s cannot run on bipartite dataset %s", w.Algorithm, w.Dataset.Name)
	}
	return prog, nil
}

// RunResult is the outcome of one (workload, mode) cell.
type RunResult struct {
	Mode Mode
	// Stats is the accelerator-side outcome (cycles, accesses...).
	Stats accel.RunStats
	// IOMMU aggregates validation/translation activity.
	IOMMU mmu.Counters
	// TLBMissRate is the IOMMU TLB miss rate (0 for PE/Ideal modes).
	TLBMissRate float64
	// TLBLookups counts TLB probes (Figure 2's denominator).
	TLBLookups uint64
	// StructHitRate is the AVC (PE modes), bitmap-cache (BM) or PWC
	// (conventional) hit rate.
	StructHitRate float64
	// EnergyEvents and Energy price the MMU activity (Figure 9).
	EnergyEvents energy.Events
	Energy       energy.Breakdown
	// HeapBytes is the workload's allocated footprint.
	HeapBytes uint64
	// IdentityMapped reports whether the whole heap was identity mapped.
	IdentityMapped bool
	// PageTableBytes is the footprint of the table the IOMMU walked
	// (0 for Ideal).
	PageTableBytes uint64
	// DRAM is the memory-controller activity.
	DRAM memsys.Stats
	// Metrics is the run's registry snapshot: every component's
	// counters under their canonical names (iommu.*, mmu.*, memsys.*,
	// accel.*). It is fully deterministic — CrossCheck verifies the
	// headline fields above against it, and merged snapshots are
	// -j-independent.
	Metrics obs.Snapshot
	// Wall is the cell's host wall-clock time. It is the only
	// nondeterministic field of a RunResult; determinism tests must
	// ignore it.
	Wall time.Duration
}

// Run executes the prepared workload under one mode.
func (p *Prepared) Run(mode Mode, cfg SystemConfig) (RunResult, error) {
	cfg = cfg.withDefaults()
	start := time.Now()
	span := cfg.Spans.Begin("cell:" + p.Workload.Algorithm + "/" + p.G.Name + "/" + mode.String())
	defer span.End()
	res := RunResult{Mode: mode}

	// Derive the run's fault injector (nil when chaos is off). The
	// labels make each cell's fault stream independent of execution
	// order; the injector itself is single-goroutine like the rest of
	// the run.
	var inj *chaos.Injector
	if cfg.Chaos.Enabled() {
		inj = cfg.Chaos.For(p.Workload.Algorithm, p.G.Name, mode.String())
		inj.SetTracer(cfg.Tracer)
	}

	var st *machineState
	var err error
	if inj != nil {
		// Chaos runs build a private machine: injected allocation
		// failures change the layout and shared tables must never see
		// injected state.
		st, err = p.newMachine(cfg, inj)
	} else {
		st, err = p.machine(cfg)
	}
	if err != nil {
		return res, err
	}
	lay := st.lay
	res.HeapBytes = lay.HeapBytes
	res.IdentityMapped = lay.IdentityMapped

	state, err := p.stateFor(st, mode, cfg.PEFields, cfg.Spans)
	if err != nil {
		return res, err
	}
	if state.Table != nil {
		res.PageTableBytes = state.Table.SizeStats().Bytes
	}

	iommu, err := mmu.NewState(mmu.Config{
		Mode:       mode,
		TLBEntries: cfg.TLBEntries,
		AVC:        cfg.AVC,
		PWC:        cfg.PWC,
		Chaos:      inj,
	}, state)
	if err != nil {
		return res, err
	}
	mem, err := memsys.NewController(cfg.Memory)
	if err != nil {
		return res, err
	}
	mem.SetChaos(inj)
	eng, err := accel.NewEngine(accel.Config{PEs: cfg.PEs, MLP: cfg.MLP}, p.G, p.Prog, lay, iommu, mem)
	if err != nil {
		return res, err
	}
	eng.SetSpans(cfg.Spans)
	// Every run reports through its own registry; the components keep
	// incrementing the same fields they always have (pointer-based
	// registration), so the hot path is unchanged and the snapshot
	// below is free until the run ends.
	reg := obs.NewRegistry()
	iommu.RegisterMetrics(reg)
	mem.RegisterMetrics(reg, "memsys")
	eng.RegisterMetrics(reg, "accel")
	inj.Register(reg)
	if cfg.Tracer != nil {
		iommu.SetTracer(cfg.Tracer)
	}

	res.Stats, err = eng.Run()
	if err != nil {
		return res, err
	}
	res.IOMMU = iommu.Counters()
	res.DRAM = mem.Snapshot()

	// The backend reports its own headline statistics with the same
	// formulas the pre-registry accessor code used, so rendered tables
	// are byte-identical across the refactor.
	bs := iommu.Stats()
	res.TLBMissRate = bs.TLBMissRate
	res.TLBLookups = bs.TLBLookups
	res.StructHitRate = bs.StructHitRate
	res.EnergyEvents.TLBLookupsFA = bs.TLBLookupsFA
	res.EnergyEvents.CacheLookups = bs.CacheLookups
	res.EnergyEvents.WalkMemRefs = res.IOMMU.WalkMemRefs
	res.EnergyEvents.SquashedPreloads = res.IOMMU.SquashedPreloads
	res.Energy = energy.Compute(energy.DefaultParams(), res.EnergyEvents)
	res.Metrics = reg.Snapshot()
	res.Wall = time.Since(start)
	// Out-of-core discipline: evict the mapped CSR's resident pages so
	// peak RSS tracks the active dataset, not every dataset ever run.
	// Concurrent cells on the same graph just soft-fault pages back in
	// from the page cache. No-op for in-memory graphs.
	p.G.DropResident()
	return res, nil
}

// newMachine builds a fresh machine for cfg: the OS process and heap
// layout. A chaos run passes its injector, installed into the OS model
// before the layout is built, so injected identity-allocation failures
// reshape that run's private address space (exercising the DAV fallback
// and preload-squash paths) without touching the shared cache.
func (p *Prepared) newMachine(cfg SystemConfig, inj *chaos.Injector) (*machineState, error) {
	sys, err := osmodel.NewSystem(cfg.MemBytes)
	if err != nil {
		return nil, err
	}
	sys.SetChaos(inj)
	proc := sys.NewProcess(osmodel.Policy{IdentityMapHeap: true, Seed: cfg.Seed})
	lay, err := accel.BuildLayout(proc, p.G, p.Prog.PropBytes)
	if err != nil {
		return nil, err
	}
	return &machineState{proc: proc, lay: lay, tables: make(map[tableKey]*tableEntry)}, nil
}

// CrossCheck verifies a RunResult's headline numbers — the values the
// report tables are rendered from — against the run's registry
// snapshot, so a divergence between what a component counted and what
// a table prints fails loudly instead of silently skewing a figure.
func CrossCheck(r RunResult) error {
	// The TLB headline is checked against the mode's declared metric
	// namespace: mmu.tlb.* for the builtin designs, mmu.sparta.tlb.* /
	// mmu.vbi.tlb.* for the registered extras.
	tlbPrefix := "mmu.tlb"
	if d, ok := mmu.DescriptorOf(r.Mode); ok && d.TLBMetricPrefix != "" {
		tlbPrefix = d.TLBMetricPrefix
	}
	checks := []struct {
		name          string
		table, metric uint64
	}{
		{"iommu.accesses", r.IOMMU.Accesses, r.Metrics.Get("iommu.accesses")},
		{"iommu.walk.memrefs", r.IOMMU.WalkMemRefs, r.Metrics.Get("iommu.walk.memrefs")},
		{"iommu.dav.identity", r.IOMMU.DAVIdentity, r.Metrics.Get("iommu.dav.identity")},
		{"iommu.dav.fallback", r.IOMMU.FallbackTranslations, r.Metrics.Get("iommu.dav.fallback")},
		{"iommu.preload.squashed", r.IOMMU.SquashedPreloads, r.Metrics.Get("iommu.preload.squashed")},
		{"iommu.faults", r.IOMMU.Faults, r.Metrics.Get("iommu.faults")},
		{"iommu.faults.corrupt", r.IOMMU.CorruptFaults, r.Metrics.Get("iommu.faults.corrupt")},
		{tlbPrefix + " lookups", r.TLBLookups, r.Metrics.Get(tlbPrefix+".hits") + r.Metrics.Get(tlbPrefix+".misses")},
		{"accel.cycles", r.Stats.Cycles, r.Metrics.Get("accel.cycles")},
		{"accel.accesses", r.Stats.Accesses, r.Metrics.Get("accel.accesses")},
		{"accel.faults", r.Stats.Faults, r.Metrics.Get("accel.faults")},
		{"memsys.accesses", r.DRAM.Accesses, r.Metrics.Get("memsys.accesses")},
	}
	for _, c := range checks {
		if c.table != c.metric {
			return fmt.Errorf("core: %v: table input %s = %d but registry reads %d — counter/table divergence",
				r.Mode, c.name, c.table, c.metric)
		}
	}
	// Histogram invariants: every distribution in the snapshot must agree
	// with the counter that paces it — the walk-memref histogram observes
	// len(Plan.MemRefs) exactly once per translation (so its sum is the
	// walk-memref counter), the latency histogram once per DRAM access,
	// the MLP-occupancy histogram once per accelerator issue.
	checkHist := func(name string, wantCount uint64, wantSum uint64, checkSum bool) error {
		h, found := r.Metrics.Hists[name]
		if !found {
			return nil
		}
		if h.Count != wantCount {
			return fmt.Errorf("core: %v: histogram %s has %d observations but its pacing counter reads %d",
				r.Mode, name, h.Count, wantCount)
		}
		if checkSum && h.Sum != wantSum {
			return fmt.Errorf("core: %v: histogram %s sums to %d but its pacing counter reads %d",
				r.Mode, name, h.Sum, wantSum)
		}
		return nil
	}
	if d, ok := mmu.DescriptorOf(r.Mode); ok {
		if err := checkHist("mmu."+d.Slug+".walk.memrefs", r.IOMMU.Accesses, r.IOMMU.WalkMemRefs, true); err != nil {
			return err
		}
	}
	if err := checkHist("memsys.latency.cycles", r.DRAM.Accesses, 0, false); err != nil {
		return err
	}
	return checkHist("accel.mlp.occupancy", r.Stats.Accesses, 0, false)
}

// derivePETable compacts the canonical 4K table std into the PE table
// at the given fan-out. The default fan-out is std's own, so that table
// is std.Compacted(): the same nodes at the same simulated PAs as
// building and compacting a second 4K table. Any other fan-out needs a
// table configured with it, filled from std's pages and then compacted.
func derivePETable(std *pagetable.Table, peFields int) (*pagetable.Table, error) {
	if peFields == std.Config().PEFields {
		return std.Compacted(), nil
	}
	tbl, err := pagetable.New(pagetable.Config{PEFields: peFields})
	if err != nil {
		return nil, err
	}
	var mapErr error
	std.ForEachPage(func(va addr.VA, pa addr.PA, perm addr.Perm) {
		if mapErr != nil {
			return
		}
		mapErr = tbl.Map(va, pa, perm, addr.PageSize4K)
	})
	if mapErr != nil {
		return nil, mapErr
	}
	tbl.Compact()
	return tbl, nil
}

// RunAll executes the prepared workload under every mode, sequentially.
func (p *Prepared) RunAll(cfg SystemConfig) (map[Mode]RunResult, error) {
	return p.RunModesCtx(context.Background(), AllModes, cfg, 1)
}

// RunModesCtx executes the prepared workload under each of modes with up
// to jobs runs in flight (jobs <= 0 uses one worker per CPU; jobs == 1
// reproduces RunAll's sequential behaviour bit-for-bit). Each run builds
// its own osmodel.System, IOMMU and memory controller, and the shared
// graph is read-only after Prepare, so concurrent modes never interact;
// results are keyed by mode, independent of completion order. The report
// layer runs extended sets (the seven paper modes plus SPARTA and VBI)
// this way without changing the default artifact.
func (p *Prepared) RunModesCtx(ctx context.Context, modes []Mode, cfg SystemConfig, jobs int) (map[Mode]RunResult, error) {
	results, err := runner.Map(ctx, runner.Options{Jobs: jobs, Budget: cfg.Workers}, len(modes), func(_ context.Context, i int) (RunResult, error) {
		m := modes[i]
		r, err := p.Run(m, cfg)
		if err != nil {
			return r, fmt.Errorf("core: %s/%s under %v: %w", p.Workload.Algorithm, p.G.Name, m, err)
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	out := make(map[Mode]RunResult, len(modes))
	for i, m := range modes {
		out[m] = results[i]
	}
	return out, nil
}
