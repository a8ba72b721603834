// Package dvm is the public API of the DVM simulator — a full-system
// reproduction of "Devirtualizing Memory in Heterogeneous Systems"
// (Haria, Hill, Swift; ASPLOS 2018).
//
// DVM (Devirtualized Memory) combines the protection of virtual memory
// with the performance of direct physical access: the OS allocates memory
// so that virtual addresses equal physical addresses (identity mapping,
// VA==PA), and the IOMMU replaces page-granularity address translation
// with region-granularity Devirtualized Access Validation (DAV) backed by
// Permission Entries — page-table entries that hold sixteen per-region
// permission fields and collapse entire page-table subtrees — cached in a
// tiny Access Validation Cache. On reads, validation can be overlapped
// with a speculative preload of the identity address.
//
// The package re-exports the simulator's layers:
//
//   - System / Process / Policy: the OS model (buddy allocator, identity
//     mapping with demand-paging fallback, page-table construction).
//   - Mode and the IOMMU configurations: the seven memory-management
//     schemes of the paper's evaluation (conventional 4K/2M/1G paging,
//     DVM-BM, DVM-PE, DVM-PE+ and Ideal), plus two registered extra
//     designs from related work — SPARTA (partitioned translation) and
//     VBI (variable-size virtual blocks). New designs plug in through
//     the mmu backend registry (DESIGN.md §11).
//   - Program / Engine: the Graphicionado-style accelerator with its
//     vertex-programming abstraction (BFS, PageRank, SSSP, CF built in).
//   - Workload / Prepare / Profile: the experiment harness that
//     regenerates every table and figure of the paper (see cmd/dvmrepro
//     and EXPERIMENTS.md).
//
// Quick start (see examples/quickstart for the runnable version):
//
//	sys := dvm.NewSystem(1 << 30)
//	proc := sys.NewProcess(dvm.Policy{IdentityMapHeap: true})
//	r, identity, _ := proc.Mmap(1<<20, dvm.ReadWrite)
//	// identity == true, and every PA equals its VA.
package dvm

import (
	"github.com/dvm-sim/dvm/internal/accel"
	"github.com/dvm-sim/dvm/internal/addr"
	"github.com/dvm-sim/dvm/internal/core"
	"github.com/dvm-sim/dvm/internal/cpu"
	"github.com/dvm-sim/dvm/internal/graph"
	"github.com/dvm-sim/dvm/internal/memsys"
	"github.com/dvm-sim/dvm/internal/mmu"
	"github.com/dvm-sim/dvm/internal/osmodel"
	"github.com/dvm-sim/dvm/internal/pagetable"
	"github.com/dvm-sim/dvm/internal/shbench"
	"github.com/dvm-sim/dvm/internal/virt"
)

// Address-space primitives.
type (
	// VA is a virtual address; PA is a physical address. Under identity
	// mapping they are numerically equal.
	VA = addr.VA
	// PA is a physical address.
	PA = addr.PA
	// Perm is the paper's 2-bit permission encoding.
	Perm = addr.Perm
	// AccessKind is read / write / execute.
	AccessKind = addr.AccessKind
	// VRange is a virtual address range.
	VRange = addr.VRange
	// PRange is a physical address range.
	PRange = addr.PRange
)

// Permissions and access kinds.
const (
	NoPerm      = addr.NoPerm
	ReadOnly    = addr.ReadOnly
	ReadWrite   = addr.ReadWrite
	ReadExecute = addr.ReadExecute

	Read    = addr.Read
	Write   = addr.Write
	Execute = addr.Execute
)

// Page sizes.
const (
	PageSize4K = addr.PageSize4K
	PageSize2M = addr.PageSize2M
	PageSize1G = addr.PageSize1G
)

// OS model.
type (
	// System is a simulated machine: physical memory plus processes.
	System = osmodel.System
	// Process is a simulated address space with identity mapping.
	Process = osmodel.Process
	// Policy selects identity-mapping behaviour per process.
	Policy = osmodel.Policy
	// VMA is one mapped region of a process.
	VMA = osmodel.VMA
	// Malloc is the pooling user-level allocator (malloc over mmap).
	Malloc = osmodel.Malloc
	// Program describes an executable image for LoadProgram (cDVM).
	OSProgram = osmodel.Program
)

// NewSystem boots a simulated machine with the given physical memory size
// (a power of two in bytes).
func NewSystem(memBytes uint64) (*System, error) { return osmodel.NewSystem(memBytes) }

// MustNewSystem is NewSystem that panics on error.
func MustNewSystem(memBytes uint64) *System { return osmodel.MustNewSystem(memBytes) }

// NewMalloc creates a pooling allocator over the process.
func NewMalloc(p *Process) *Malloc { return osmodel.NewMalloc(p) }

// Page tables and MMU hardware.
type (
	// PageTable is the x86-64 radix table with Permission Entry support.
	PageTable = pagetable.Table
	// IOMMU validates/translates accelerator accesses per its Mode.
	IOMMU = mmu.IOMMU
	// IOMMUConfig assembles an IOMMU.
	IOMMUConfig = mmu.Config
	// PermBitmap is the DVM-BM flat permission bitmap.
	PermBitmap = mmu.PermBitmap
	// TLB is a translation lookaside buffer model.
	TLB = mmu.TLB
	// MemController is the DDR4-style timing model.
	MemController = memsys.Controller
	// MemConfig shapes the memory system.
	MemConfig = memsys.Config
)

// NewIOMMU creates an IOMMU over a page table (and bitmap for ModeDVMBM).
func NewIOMMU(cfg IOMMUConfig, table *PageTable, bm *PermBitmap) (*IOMMU, error) {
	return mmu.New(cfg, table, bm)
}

// NewPermBitmap creates an empty DVM-BM permission bitmap.
func NewPermBitmap() *PermBitmap { return mmu.NewPermBitmap() }

// NewMemController creates a memory controller; zero config fields default
// to the paper's 4-channel, 51.2 GB/s system.
func NewMemController(cfg MemConfig) (*MemController, error) { return memsys.NewController(cfg) }

// Memory-management modes (the paper's seven configurations plus the
// registered extra designs).
type Mode = core.Mode

// Modes, in the paper's presentation order (Ideal last), plus the extras.
const (
	ModeConv4K    = core.ModeConv4K
	ModeConv2M    = core.ModeConv2M
	ModeConv1G    = core.ModeConv1G
	ModeDVMBM     = core.ModeDVMBM
	ModeDVMPE     = core.ModeDVMPE
	ModeDVMPEPlus = core.ModeDVMPEPlus
	ModeIdeal     = core.ModeIdeal
	ModeSPARTA    = core.ModeSPARTA
	ModeVBI       = core.ModeVBI
)

// AllModes lists the paper's seven modes; the registry views expose the
// full set including extras and resolve CLI-style names.
var (
	AllModes        = core.AllModes
	RegisteredModes = core.RegisteredModes
	ExtraModes      = core.ExtraModes
	ModeNames       = core.ModeNames
	ModeByName      = core.ModeByName
)

// Accelerator.
type (
	// Program is Graphicionado's vertex-programming abstraction
	// (processEdge / reduce / apply).
	Program = accel.Program
	// Engine executes a Program with full timing through the IOMMU.
	Engine = accel.Engine
	// EngineConfig shapes the accelerator (PEs, MLP).
	EngineConfig = accel.Config
	// Layout is the heap placement of a workload's arrays.
	Layout = accel.Layout
	// RunStats is an accelerator run's outcome.
	RunStats = accel.RunStats
)

// Built-in vertex programs.
var (
	// BFS returns breadth-first search from a root vertex.
	BFS = accel.BFS
	// SSSP returns single-source shortest path from a root vertex.
	SSSP = accel.SSSP
	// PageRank returns PageRank bounded to the given iterations.
	PageRank = accel.PageRank
	// CF returns one collaborative-filtering sweep over a bipartite
	// rating graph.
	CF = accel.CF
)

// BuildLayout allocates a workload's arrays in the process address space.
func BuildLayout(p *Process, g *Graph, propBytes uint64) (Layout, error) {
	return accel.BuildLayout(p, g, propBytes)
}

// NewEngine assembles an accelerator engine.
func NewEngine(cfg EngineConfig, g *Graph, prog Program, lay Layout, iommu *IOMMU, mem *MemController) (*Engine, error) {
	return accel.NewEngine(cfg, g, prog, lay, iommu, mem)
}

// Graphs.
type (
	// Graph is a CSR graph, optionally bipartite.
	Graph = graph.Graph
	// DatasetSpec is one entry of the paper's Table 3.
	DatasetSpec = graph.DatasetSpec
	// RMATConfig parameterizes the graph500 generator.
	RMATConfig = graph.RMATConfig
	// BipartiteConfig parameterizes rating-graph synthesis.
	BipartiteConfig = graph.BipartiteConfig
)

// Graph constructors and the Table 3 registry.
var (
	GenerateRMAT      = graph.GenerateRMAT
	GenerateBipartite = graph.GenerateBipartite
	DefaultRMAT       = graph.DefaultRMAT
	Datasets          = graph.Datasets
	DatasetByName     = graph.DatasetByName
)

// Experiment harness.
type (
	// Workload is one cell of the evaluation matrix.
	Workload = core.Workload
	// Prepared is a generated workload ready to run under any mode.
	Prepared = core.Prepared
	// PreparedCache deduplicates Prepare calls across generators and
	// parallel workers (single-flight; results unchanged).
	PreparedCache = core.PreparedCache
	// SystemConfig is the simulated machine configuration.
	SystemConfig = core.SystemConfig
	// RunResult is one (workload, mode) outcome.
	RunResult = core.RunResult
	// Profile couples a dataset scale with scaled hardware.
	Profile = core.Profile
	// Figure8Cell / Figure9Cell / Figure2Row / Table1Row are the
	// regenerated paper artifacts.
	Figure8Cell = core.Figure8Cell
	Figure9Cell = core.Figure9Cell
	Figure2Row  = core.Figure2Row
	Table1Row   = core.Table1Row
)

// Harness entry points.
var (
	Prepare          = core.Prepare
	NewPreparedCache = core.NewPreparedCache
	ProfileByName    = core.ProfileByName
	Figure2          = core.Figure2
	Table1           = core.Table1
	Figure8          = core.Figure8
	Figure9          = core.Figure9
)

// Predefined profiles.
var (
	ProfileTiny   = core.ProfileTiny
	ProfileSmall  = core.ProfileSmall
	ProfileMedium = core.ProfileMedium
	ProfilePaper  = core.ProfilePaper
)

// CPU-side cDVM (Section 7).
type (
	// CPUWorkload is one Figure 10 benchmark.
	CPUWorkload = cpu.WorkloadSpec
	// CPUConfig is the CPU MMU configuration.
	CPUConfig = cpu.Config
	// CPUResult is one Figure 10 bar group.
	CPUResult = cpu.Result
	// CPUScheme is 4K / THP / cDVM.
	CPUScheme = cpu.Scheme
)

// CPU schemes.
const (
	Scheme4K   = cpu.Scheme4K
	SchemeTHP  = cpu.SchemeTHP
	SchemeCDVM = cpu.SchemeCDVM
)

// CPU harness.
var (
	CPUWorkloads      = cpu.Workloads
	CPURun            = cpu.Run
	CPUWorkloadByName = cpu.WorkloadByName
)

// Fragmentation (Table 4) harness.
type (
	// ShbenchExperiment is one Table 4 configuration.
	ShbenchExperiment = shbench.Experiment
	// ShbenchResult is one Table 4 cell.
	ShbenchResult = shbench.Result
)

// Shbench harness.
var (
	ShbenchExperiments = shbench.Experiments
	ShbenchMemSizes    = shbench.MemorySizes
	ShbenchRun         = shbench.Run
)

// Virtualized DVM (paper §5 extension).
type (
	// VirtScheme is one of the nested-translation schemes.
	VirtScheme = virt.Scheme
	// VirtMachine composes a guest and a nested page table.
	VirtMachine = virt.Machine
	// VirtConfig shapes the virtual machine model.
	VirtConfig = virt.Config
	// VirtResult is one scheme's measured translation cost.
	VirtResult = virt.Result
)

// Virtualized schemes.
const (
	VirtNested2D = virt.SchemeNested2D
	VirtGuestDVM = virt.SchemeGuestDVM
	VirtHostDVM  = virt.SchemeHostDVM
	VirtFullDVM  = virt.SchemeFullDVM
)

// Virtualization harness.
var (
	NewVirtMachine = virt.NewMachine
	VirtMeasure    = virt.Measure
	VirtSchemes    = virt.AllSchemes
)
