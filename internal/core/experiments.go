package core

import (
	"context"
	"fmt"
	"strings"

	"github.com/dvm-sim/dvm/internal/graph"
	"github.com/dvm-sim/dvm/internal/obs"
	"github.com/dvm-sim/dvm/internal/runner"
)

// Profile fixes the workload scale and the matching hardware scale for a
// whole experiment sweep. Shrinking the workload without shrinking the TLB
// would leave the TLB covering the entire working set — a regime the
// paper's GB-scale inputs are never in — so the small/medium profiles
// shrink TLB reach proportionally (scaled-hardware methodology, DESIGN.md
// §6). PWC/AVC keep their paper geometry: their efficacy tracks page-table
// size, which already scales with the workload.
type Profile struct {
	// Name labels the profile in reports.
	Name string
	// Scale is the linear dataset scale (1 = paper size).
	Scale float64
	// TLBEntries is the scaled IOMMU TLB size.
	TLBEntries int
	// PageRankIters bounds PageRank.
	PageRankIters int
}

// Predefined profiles.
var (
	// ProfileTiny is for unit tests: seconds per sweep.
	ProfileTiny = Profile{Name: "tiny", Scale: 1.0 / 512, TLBEntries: 4, PageRankIters: 2}
	// ProfileSmall is the default for the reproduction harness: the full
	// Figure 8/9 matrix runs in a few minutes.
	ProfileSmall = Profile{Name: "small", Scale: 1.0 / 64, TLBEntries: 8, PageRankIters: 3}
	// ProfileMedium trades minutes for fidelity.
	ProfileMedium = Profile{Name: "medium", Scale: 1.0 / 16, TLBEntries: 16, PageRankIters: 3}
	// ProfileLarge sits between medium and paper: GB-class inputs meant
	// to run out-of-core (mmap'd graph cache) on
	// modest-RAM machines. TLB reach follows the existing scaling ladder
	// (×2 entries per ×4 scale from medium).
	ProfileLarge = Profile{Name: "large", Scale: 1.0 / 4, TLBEntries: 32, PageRankIters: 3}
	// ProfilePaper is the paper's full configuration (hours; needs GBs
	// of host memory).
	ProfilePaper = Profile{Name: "paper", Scale: 1, TLBEntries: 128, PageRankIters: 3}
)

// Profiles is the registry of predefined profiles, smallest first. CLI
// vocab (help strings, validation) derives from it so new profiles
// cannot drift out of the tools.
func Profiles() []Profile {
	return []Profile{ProfileTiny, ProfileSmall, ProfileMedium, ProfileLarge, ProfilePaper}
}

// ProfileNames returns the registered profile labels in registry order.
func ProfileNames() []string {
	ps := Profiles()
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.Name
	}
	return names
}

// ProfileByName resolves a profile label.
func ProfileByName(name string) (Profile, error) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("core: unknown profile %q (registered: %s)", name, strings.Join(ProfileNames(), "|"))
}

// SystemConfig returns the machine configuration for the profile.
func (p Profile) SystemConfig() SystemConfig {
	return SystemConfig{TLBEntries: p.TLBEntries}
}

// Workloads returns the evaluation matrix of Figures 2/8/9: BFS, PageRank
// and SSSP over FR/Wiki/LJ/S24 and CF over NF/Bip1/Bip2 — 15 cells.
func (p Profile) Workloads() []Workload {
	var out []Workload
	for _, alg := range []string{"BFS", "PageRank", "SSSP"} {
		for _, d := range graph.GraphDatasets() {
			out = append(out, Workload{
				Algorithm: alg, Dataset: d, Scale: p.Scale,
				PageRankIters: p.PageRankIters, Seed: 42,
			})
		}
	}
	for _, d := range graph.BipartiteDatasets() {
		out = append(out, Workload{Algorithm: "CF", Dataset: d, Scale: p.Scale, Seed: 42})
	}
	return out
}

// Figure2Row is one bar pair of Figure 2: a workload's TLB miss rate with
// 4 KB and 2 MB pages. Both runs' TLB lookup counts are recorded so the
// miss-rate denominators are auditable (the 4K and 2M runs probe the TLB
// different numbers of times: huge pages change the walk traffic).
type Figure2Row struct {
	Algorithm  string
	Dataset    string
	MissRate4K float64
	MissRate2M float64
	Lookups4K  uint64
	Lookups2M  uint64
	// Metrics4K / Metrics2M are the two runs' registry snapshots, kept
	// so report generators can cross-check the rendered rates against
	// the components' own counters.
	Metrics4K obs.Snapshot
	Metrics2M obs.Snapshot
}

// Figure2 measures TLB miss rates for one prepared workload.
func Figure2(p *Prepared, cfg SystemConfig) (Figure2Row, error) {
	row := Figure2Row{Algorithm: p.Workload.Algorithm, Dataset: p.Workload.Dataset.Name}
	r4, err := p.Run(ModeConv4K, cfg)
	if err != nil {
		return row, err
	}
	r2, err := p.Run(ModeConv2M, cfg)
	if err != nil {
		return row, err
	}
	row.MissRate4K = r4.TLBMissRate
	row.MissRate2M = r2.TLBMissRate
	row.Lookups4K = r4.TLBLookups
	row.Lookups2M = r2.TLBLookups
	row.Metrics4K = r4.Metrics
	row.Metrics2M = r2.Metrics
	return row, nil
}

// Table1Row is one row of Table 1: page-table footprints for a workload.
type Table1Row struct {
	Input string
	// StdBytes is the conventional 4 KB page table size.
	StdBytes uint64
	// L1Fraction is the share of StdBytes in leaf (L1) page-table pages.
	L1Fraction float64
	// PEBytes is the size after Permission Entry compaction.
	PEBytes uint64
}

// Table1 computes page-table footprints for one prepared workload (the
// paper reports PageRank and CF heaps): the cached machine's 4K and PE
// tables, the ones its Conv4K and DVM-PE runs walk.
func Table1(p *Prepared, cfg SystemConfig) (Table1Row, error) {
	cfg = cfg.withDefaults()
	row := Table1Row{Input: p.Workload.Dataset.Name}
	st, err := p.machine(cfg)
	if err != nil {
		return row, err
	}
	std, err := p.stateFor(st, ModeConv4K, 0, cfg.Spans)
	if err != nil {
		return row, err
	}
	pe, err := p.stateFor(st, ModeDVMPE, 0, cfg.Spans)
	if err != nil {
		return row, err
	}
	stdStats, err := std.Table.SizeStats()
	if err != nil {
		return row, err
	}
	peStats, err := pe.Table.SizeStats()
	if err != nil {
		return row, err
	}
	row.StdBytes = stdStats.Bytes
	row.L1Fraction = stdStats.L1Fraction
	row.PEBytes = peStats.Bytes
	return row, nil
}

// Figure8Cell is one workload's execution time under every mode, normalized
// to Ideal.
type Figure8Cell struct {
	Algorithm string
	Dataset   string
	// Cycles per mode.
	Cycles map[Mode]uint64
	// Normalized holds Cycles[mode]/Cycles[Ideal].
	Normalized map[Mode]float64
	// Results keeps the full per-mode results (Figure 9 reuses the
	// energy numbers).
	Results map[Mode]RunResult
}

// Figure8 runs one workload under all modes, sequentially.
func Figure8(p *Prepared, cfg SystemConfig) (Figure8Cell, error) {
	return Figure8ModesCtx(context.Background(), p, AllModes, cfg, 1)
}

// Figure8ModesCtx runs one workload under an explicit mode list with up
// to jobs runs in flight; any jobs value yields the exact RunResults of
// the sequential sweep (enforced by TestFigure8ParallelismIsDeterministic).
// Extended sweeps add SPARTA/VBI columns this way. The list must include
// ModeIdeal (the normalization baseline).
func Figure8ModesCtx(ctx context.Context, p *Prepared, modes []Mode, cfg SystemConfig, jobs int) (Figure8Cell, error) {
	cell := Figure8Cell{
		Algorithm:  p.Workload.Algorithm,
		Dataset:    p.Workload.Dataset.Name,
		Cycles:     map[Mode]uint64{},
		Normalized: map[Mode]float64{},
	}
	results, err := p.RunModesCtx(ctx, modes, cfg, jobs)
	if err != nil {
		return cell, err
	}
	cell.Results = results
	ideal := results[ModeIdeal].Stats.Cycles
	if ideal == 0 {
		return cell, fmt.Errorf("core: ideal run took zero cycles")
	}
	for m, r := range results {
		cell.Cycles[m] = r.Stats.Cycles
		cell.Normalized[m] = float64(r.Stats.Cycles) / float64(ideal)
	}
	return cell, nil
}

// Figure9Cell is a workload's MMU dynamic energy per mode, normalized to
// the 4K baseline.
type Figure9Cell struct {
	Algorithm  string
	Dataset    string
	EnergyPJ   map[Mode]float64
	Normalized map[Mode]float64
}

// Figure9 derives the energy figure from a Figure 8 cell (the same runs
// provide both, as in the paper).
func Figure9(cell Figure8Cell) (Figure9Cell, error) {
	out := Figure9Cell{
		Algorithm:  cell.Algorithm,
		Dataset:    cell.Dataset,
		EnergyPJ:   map[Mode]float64{},
		Normalized: map[Mode]float64{},
	}
	base := cell.Results[ModeConv4K].Energy.Total
	if base == 0 {
		return out, fmt.Errorf("core: 4K baseline consumed zero MMU energy")
	}
	// Every mode the cell actually ran gets an energy column (registry
	// order); the 4K baseline is handled below and Ideal consumes no MMU
	// energy by definition, as in the paper.
	for _, m := range RegisteredModes() {
		if m == ModeConv4K || m == ModeIdeal {
			continue
		}
		r, ok := cell.Results[m]
		if !ok {
			continue
		}
		e := r.Energy.Total
		out.EnergyPJ[m] = e
		out.Normalized[m] = e / base
	}
	out.EnergyPJ[ModeConv4K] = base
	out.Normalized[ModeConv4K] = 1
	return out, nil
}

// TLBMissRateVsSizeCtx sweeps TLB sizes for one workload at 4 KB pages —
// the sensitivity study behind Figure 2's "128-entry TLB" choice — with
// up to jobs sizes measured concurrently.
func TLBMissRateVsSizeCtx(ctx context.Context, p *Prepared, cfg SystemConfig, sizes []int, jobs int) (map[int]float64, error) {
	rates, err := runner.Map(ctx, runner.Options{Jobs: jobs}, len(sizes), func(_ context.Context, i int) (float64, error) {
		c := cfg
		c.TLBEntries = sizes[i]
		r, err := p.Run(ModeConv4K, c)
		if err != nil {
			return 0, err
		}
		return r.TLBMissRate, nil
	})
	if err != nil {
		return nil, err
	}
	out := make(map[int]float64, len(sizes))
	for i, n := range sizes {
		out[n] = rates[i]
	}
	return out, nil
}
