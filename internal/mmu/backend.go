package mmu

import (
	"fmt"
	"sort"
	"strings"

	"github.com/dvm-sim/dvm/internal/addr"
	"github.com/dvm-sim/dvm/internal/obs"
	"github.com/dvm-sim/dvm/internal/pagetable"
)

// Backend is the per-mode translation/validation engine behind the IOMMU
// front-end. The front-end owns everything shared between designs — the
// activity counters, the tracer, the walk buffer and the OS-model state
// pointers (page table, permission bitmap, block table) — while a Backend
// owns the design's hardware structures (TLBs, walker caches, the AVC, a
// bitmap cache, shard structures, a block cache) and the per-access
// decision logic. DESIGN.md §11 documents the full contract and how to
// register a new design; the existing seven paper configurations plus
// SPARTA and VBI are all implemented against this interface.
type Backend interface {
	// TranslateInto validates/translates one access into p. This is the
	// zero-alloc hot path: the front-end has already reset p and counted
	// the access; the backend charges probe cycles and dependent memory
	// references and either fills p.PA or faults the plan.
	TranslateInto(va addr.VA, kind addr.AccessKind, p *Plan)
	// SwitchContext validates that st carries the OS-model state the
	// design needs and flushes exactly the per-address-space structures
	// (physically-indexed caches survive). The front-end installs st and
	// counts the switch only after this returns nil.
	SwitchContext(st State) error
	// RegisterMetrics publishes the backend's structure counters under
	// its metric namespace (mmu.tlb.*, mmu.avc.*, mmu.sparta.*, ...).
	RegisterMetrics(reg *obs.Registry)
	// SetTracer attaches the run's tracer to every owned structure; nil
	// detaches. Tracing must never change results.
	SetTracer(tr *obs.Tracer)
	// Stats returns the headline statistics snapshot the report tables
	// and the energy model consume.
	Stats() BackendStats
	// Reset zeroes the statistical counters of every owned structure per
	// the CacheStats contract (contents and recency are preserved).
	Reset()
}

// State is the OS-model translation state an IOMMU is pointed at — what a
// backend's construction and SwitchContext consume. Which fields must be
// non-nil is declared by the mode's Descriptor (Table/NeedsBitmap/
// NeedsBlocks) and enforced by the backend constructor.
type State struct {
	// Table is the page table the design walks (nil for Ideal).
	Table *pagetable.Table
	// Bitmap is the DVM-BM permission bitmap.
	Bitmap *PermBitmap
	// Blocks is the VBI variable-size block table.
	Blocks *BlockTable
}

// BackendStats is the headline statistics view a backend reports after a
// run: the numbers core.Run copies into a RunResult and the energy model
// prices. Each backend computes them from its own structures with the
// same formulas the pre-registry IOMMU used, so the rendered tables are
// byte-identical across the refactor.
type BackendStats struct {
	// TLBLookups / TLBMissRate describe the design's per-address-space
	// TLB (zero when the design has none, e.g. PE modes and Ideal).
	TLBLookups  uint64
	TLBMissRate float64
	// TLBLookupsFA counts fully-associative TLB probes for the energy
	// model (Figure 9's eTLB term).
	TLBLookupsFA uint64
	// CacheLookups counts SRAM structure probes (PWC, AVC, bitmap cache,
	// shard walker caches, block cache) for the energy model.
	CacheLookups uint64
	// StructHitRate is the design's headline validation-structure hit
	// rate (PWC, AVC, bitmap cache, shard walker caches or block cache).
	StructHitRate float64
}

// TableNeed names the page table a mode's OS model must build for it.
type TableNeed int

// Table needs.
const (
	// TableNone: the design walks nothing (Ideal).
	TableNone TableNeed = iota
	// TableCanonical: the exact 4 KB-granularity mapping state.
	TableCanonical
	// TableHuge: a THP-style table at Descriptor.PageSize (2M/1G).
	TableHuge
	// TablePE: the canonical table compacted with Permission Entries.
	TablePE
)

// Descriptor registers one memory-management design: its identity (mode
// id, paper name, CLI aliases), its place in the evaluation (paper-set
// membership and presentation order), the OS-model state its backend is
// constructed over, and the constructor itself. Register validates and
// installs it; the mode lists, the report columns and the CLI mode
// parsers are all derived from the registered set.
type Descriptor struct {
	// Mode is the stable identifier, one of the package constants.
	Mode Mode
	// Name is the canonical (paper) name rendered in table headers.
	Name string
	// Slug is the mode's metric-namespace segment: the front-end
	// publishes per-mode distributions under "mmu.<slug>." (e.g.
	// mmu.sparta.walk.memrefs). Empty derives it from Name by dropping
	// every character outside [a-z0-9] of the lowercased name.
	Slug string
	// Aliases are additional accepted spellings; all name matching is
	// case-insensitive.
	Aliases []string
	// Paper marks the seven-configuration artifact set of the paper's
	// §6.3 evaluation. AllModes contains exactly the Paper descriptors;
	// non-paper designs render as opt-in extra columns.
	Paper bool
	// Order sorts mode lists (Figure 8 legend order; Ideal last).
	Order int
	// PageSize is the translation granularity the mode's table is built
	// with (0 = 4 KB).
	PageSize uint64
	// UsesPE: the mode's table is compacted with Permission Entries.
	UsesPE bool
	// Table / NeedsBitmap / NeedsBlocks declare the OS-model state the
	// backend's construction requires; core builds (and caches) exactly
	// these per workload.
	Table       TableNeed
	NeedsBitmap bool
	NeedsBlocks bool
	// TLBMetricPrefix is the metric namespace whose hits+misses account
	// for BackendStats.TLBLookups ("" defaults to "mmu.tlb");
	// core.CrossCheck verifies the table value against it.
	TLBMetricPrefix string
	// New constructs the backend over u. The front-end has already
	// installed the State pointers (u.Table()/u.Bitmap()/u.Blocks()) and
	// applied Config defaults; New validates the state it needs and
	// builds its structures.
	New func(u *IOMMU) (Backend, error)
}

// registry holds every registered design. Registration happens during
// package init (builtins) or test setup; the simulation hot path never
// touches these maps.
var (
	backendRegistry = map[Mode]*Descriptor{}
	backendNames    = map[string]Mode{}
)

// AllModes lists the paper's evaluated modes in presentation order
// (Figure 8's legend order, with Ideal last as the normalization
// baseline). It is derived from the registry's Paper descriptors and
// rebuilt on every Register call.
var AllModes []Mode

// Register installs a design. It panics on a duplicate mode id, a
// duplicate name/alias, or a descriptor without a constructor —
// registration errors are programming errors and surface at init.
func Register(d Descriptor) {
	if d.New == nil {
		panic(fmt.Sprintf("mmu: Register(%q): nil constructor", d.Name))
	}
	if d.Name == "" {
		panic(fmt.Sprintf("mmu: Register(mode %d): empty name", int(d.Mode)))
	}
	if _, dup := backendRegistry[d.Mode]; dup {
		panic(fmt.Sprintf("mmu: Register(%q): mode %d already registered", d.Name, int(d.Mode)))
	}
	if d.Slug == "" {
		d.Slug = slugify(d.Name)
	}
	desc := d
	backendRegistry[d.Mode] = &desc
	for _, name := range append([]string{d.Name}, d.Aliases...) {
		key := strings.ToLower(name)
		if prev, dup := backendNames[key]; dup && prev != d.Mode {
			panic(fmt.Sprintf("mmu: Register(%q): name %q already taken by %v", d.Name, name, prev))
		}
		backendNames[key] = d.Mode
	}
	AllModes = modesWhere(func(dd *Descriptor) bool { return dd.Paper })
}

// slugify derives a metric-namespace segment from a mode name:
// lowercase, keeping only [a-z0-9] ("DVM-PE+" -> "dvmpe").
func slugify(name string) string {
	var b strings.Builder
	for _, c := range strings.ToLower(name) {
		if (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') {
			b.WriteRune(c)
		}
	}
	return b.String()
}

// modesWhere returns the registered modes matching keep, sorted by Order.
func modesWhere(keep func(*Descriptor) bool) []Mode {
	var out []Mode
	for m, d := range backendRegistry {
		if keep(d) {
			out = append(out, m)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		return backendRegistry[out[i]].Order < backendRegistry[out[j]].Order
	})
	return out
}

// RegisteredModes returns every registered mode in presentation order
// (paper set and extras interleaved by Order; Ideal last).
func RegisteredModes() []Mode {
	return modesWhere(func(*Descriptor) bool { return true })
}

// ExtraModes returns the registered non-paper designs in order — the
// opt-in extra report columns (SPARTA, VBI, user registrations).
func ExtraModes() []Mode {
	return modesWhere(func(d *Descriptor) bool { return !d.Paper })
}

// DescriptorOf returns the registered descriptor for m.
func DescriptorOf(m Mode) (*Descriptor, bool) {
	d, ok := backendRegistry[m]
	return d, ok
}

// ModeNames returns the canonical registered names in presentation order
// — the vocabulary CLI error messages print.
func ModeNames() []string {
	modes := RegisteredModes()
	names := make([]string, len(modes))
	for i, m := range modes {
		names[i] = backendRegistry[m].Name
	}
	return names
}

// ModeByName resolves a mode name or alias, case-insensitively. Unknown
// names error with the registered vocabulary, so CLI layers can reject
// typos loudly instead of silently running a default.
func ModeByName(name string) (Mode, error) {
	if m, ok := backendNames[strings.ToLower(strings.TrimSpace(name))]; ok {
		return m, nil
	}
	return 0, fmt.Errorf("mmu: unknown mode %q (registered: %s)", name, strings.Join(ModeNames(), ", "))
}

func init() {
	registerBuiltins()
	registerSPARTA()
	registerVBI()
}
