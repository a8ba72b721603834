// Benchmarks regenerating each table and figure of the paper's evaluation
// (DESIGN.md maps every artifact to its bench). Benchmarks run at the tiny
// profile so `go test -bench=.` finishes in minutes; cmd/dvmrepro
// regenerates the same artifacts at the larger profiles.
package dvm_test

import (
	"sync"
	"testing"

	dvm "github.com/dvm-sim/dvm"
)

// prepared caches the benchmark workload across benchmarks.
var (
	prepOnce sync.Once
	prepWL   *dvm.Prepared
	prepCF   *dvm.Prepared
	prepErr  error
)

// benchWorkloads prepares (once) and returns both benchmark workloads.
// Every benchmark goes through here and fatals on prepErr before touching
// either prepared workload: preparation stops at the first failure, so a
// failed NF generation after a successful Wiki one would otherwise leave
// prepCF nil while prepWL looks usable.
func benchWorkloads(b *testing.B) (wl, cf *dvm.Prepared) {
	b.Helper()
	prepOnce.Do(func() {
		d, err := dvm.DatasetByName("Wiki")
		if err != nil {
			prepErr = err
			return
		}
		prepWL, prepErr = dvm.Prepare(dvm.Workload{
			Algorithm: "PageRank", Dataset: d,
			Scale: dvm.ProfileTiny.Scale, PageRankIters: 2, Seed: 42,
		})
		if prepErr != nil {
			return
		}
		nf, err := dvm.DatasetByName("NF")
		if err != nil {
			prepErr = err
			return
		}
		prepCF, prepErr = dvm.Prepare(dvm.Workload{
			Algorithm: "CF", Dataset: nf, Scale: dvm.ProfileTiny.Scale, Seed: 42,
		})
	})
	if prepErr != nil {
		b.Fatal(prepErr)
	}
	return prepWL, prepCF
}

func benchWorkload(b *testing.B) *dvm.Prepared {
	b.Helper()
	wl, _ := benchWorkloads(b)
	return wl
}

// BenchmarkFigure2TLBMissRates regenerates one Figure 2 bar pair (4 KB and
// 2 MB TLB miss rates) per iteration.
func BenchmarkFigure2TLBMissRates(b *testing.B) {
	p := benchWorkload(b)
	cfg := dvm.ProfileTiny.SystemConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row, err := dvm.Figure2(p, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if row.MissRate4K <= 0 {
			b.Fatal("no misses measured")
		}
	}
}

// BenchmarkTable1PageTableSizes regenerates one Table 1 row (standard vs
// Permission Entry page-table footprint) per iteration.
func BenchmarkTable1PageTableSizes(b *testing.B) {
	p := benchWorkload(b)
	cfg := dvm.ProfileTiny.SystemConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row, err := dvm.Table1(p, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if row.PEBytes >= row.StdBytes {
			b.Fatalf("PEs did not shrink the table: %d vs %d", row.PEBytes, row.StdBytes)
		}
	}
}

// BenchmarkDatasetGeneration generates and validates one tiny-scale
// FR graph, the work every graph-reading artifact's preparation does.
// Table 1, Table 3 and dvminspect read only the datasets' shapes and
// generate no graph.
func BenchmarkDatasetGeneration(b *testing.B) {
	d, err := dvm.DatasetByName("FR")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := d.Generate(dvm.ProfileTiny.Scale, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if err := g.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure8ExecutionTime regenerates one Figure 8 cell (all seven
// modes, normalized to Ideal) per iteration.
func BenchmarkFigure8ExecutionTime(b *testing.B) {
	p := benchWorkload(b)
	cfg := dvm.ProfileTiny.SystemConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cell, err := dvm.Figure8(p, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if cell.Normalized[dvm.ModeConv4K] <= cell.Normalized[dvm.ModeDVMPEPlus] {
			b.Fatal("figure 8 ordering violated")
		}
	}
}

// BenchmarkFigure9Energy regenerates one Figure 9 cell (MMU dynamic energy
// normalized to the 4K baseline) per iteration.
func BenchmarkFigure9Energy(b *testing.B) {
	p := benchWorkload(b)
	cfg := dvm.ProfileTiny.SystemConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cell, err := dvm.Figure8(p, cfg)
		if err != nil {
			b.Fatal(err)
		}
		fig9, err := dvm.Figure9(cell)
		if err != nil {
			b.Fatal(err)
		}
		if fig9.Normalized[dvm.ModeDVMPE] >= 1 {
			b.Fatal("DVM-PE did not save MMU energy")
		}
	}
}

// BenchmarkFigure8CF runs the collaborative-filtering column of Figure 8.
func BenchmarkFigure8CF(b *testing.B) {
	_, cf := benchWorkloads(b)
	cfg := dvm.ProfileTiny.SystemConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dvm.Figure8(cf, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4IdentityMapping runs one shbench cell (experiment 2 at
// 1 GB) per iteration.
func BenchmarkTable4IdentityMapping(b *testing.B) {
	exp := dvm.ShbenchExperiments[1]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := dvm.ShbenchRun(exp, 1<<30)
		if err != nil {
			b.Fatal(err)
		}
		if r.Percent < 80 {
			b.Fatalf("identity fraction %.1f%% implausibly low", r.Percent)
		}
	}
}

// BenchmarkFigure10CDVM runs one Figure 10 workload (mcf, shortened trace)
// per iteration.
func BenchmarkFigure10CDVM(b *testing.B) {
	spec, err := dvm.CPUWorkloadByName("mcf")
	if err != nil {
		b.Fatal(err)
	}
	spec.Accesses = 300_000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := dvm.CPURun(spec, dvm.CPUConfig{})
		if err != nil {
			b.Fatal(err)
		}
		if r.Overhead[dvm.SchemeCDVM] >= r.Overhead[dvm.Scheme4K] {
			b.Fatal("cDVM did not beat 4K")
		}
	}
}

// BenchmarkModes runs the benchmark workload under each mode separately so
// per-mode simulation cost is visible.
func BenchmarkModes(b *testing.B) {
	p := benchWorkload(b)
	cfg := dvm.ProfileTiny.SystemConfig()
	for _, mode := range dvm.AllModes {
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := p.Run(mode, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationPEFanout sweeps the Permission Entry field count
// (DESIGN.md ablation 1).
func BenchmarkAblationPEFanout(b *testing.B) {
	p := benchWorkload(b)
	for _, fields := range []int{4, 16, 64} {
		b.Run(map[int]string{4: "4-fields", 16: "16-fields", 64: "64-fields"}[fields], func(b *testing.B) {
			cfg := dvm.ProfileTiny.SystemConfig()
			cfg.PEFields = fields
			for i := 0; i < b.N; i++ {
				if _, err := p.Run(dvm.ModeDVMPE, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationAVCSize sweeps the AVC capacity (DESIGN.md ablation 5).
func BenchmarkAblationAVCSize(b *testing.B) {
	p := benchWorkload(b)
	for _, capBytes := range []int{256, 1024, 4096} {
		b.Run(map[int]string{256: "256B", 1024: "1KB", 4096: "4KB"}[capBytes], func(b *testing.B) {
			cfg := dvm.ProfileTiny.SystemConfig()
			cfg.AVC.CapacityBytes = capBytes
			cfg.AVC.MinLevel = 1
			for i := 0; i < b.N; i++ {
				if _, err := p.Run(dvm.ModeDVMPE, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationAVCCachesL1 toggles whether the walker cache may hold
// leaf lines — the AVC-vs-PWC distinction (DESIGN.md ablation 2).
func BenchmarkAblationAVCCachesL1(b *testing.B) {
	p := benchWorkload(b)
	for minLevel, name := range map[int]string{1: "avc-all-levels", 2: "pwc-skips-leaves"} {
		b.Run(name, func(b *testing.B) {
			cfg := dvm.ProfileTiny.SystemConfig()
			cfg.AVC.MinLevel = minLevel
			for i := 0; i < b.N; i++ {
				if _, err := p.Run(dvm.ModeDVMPE, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationPreload contrasts DVM-PE and DVM-PE+ (DESIGN.md
// ablation 3).
func BenchmarkAblationPreload(b *testing.B) {
	p := benchWorkload(b)
	cfg := dvm.ProfileTiny.SystemConfig()
	for _, mode := range []dvm.Mode{dvm.ModeDVMPE, dvm.ModeDVMPEPlus} {
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := p.Run(mode, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkVirtualization measures the §5 extension: one scheme sweep
// (nested-2D through full DVM) per iteration.
func BenchmarkVirtualization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var prev float64 = -1
		for j := len(dvm.VirtSchemes) - 1; j >= 0; j-- {
			r, err := dvm.VirtMeasure(dvm.VirtSchemes[j], dvm.VirtConfig{HeapBytes: 8 << 20}, 20_000, 7)
			if err != nil {
				b.Fatal(err)
			}
			if r.AvgCycles < prev {
				b.Fatal("virtualization ordering violated")
			}
			prev = r.AvgCycles
		}
	}
}

// BenchmarkPrepare measures workload preparation end-to-end: dataset
// generation (CSR construction), address-space layout and page-table
// population — the deterministic pre-simulation paths that PR 4 made
// budget-aware. Sequential here (no Workers budget); the parallel paths
// are pinned byte-identical to this one by the equivalence tests.
func BenchmarkPrepare(b *testing.B) {
	d, err := dvm.DatasetByName("Wiki")
	if err != nil {
		b.Fatal(err)
	}
	wl := dvm.Workload{
		Algorithm: "PageRank", Dataset: d,
		Scale: dvm.ProfileTiny.Scale, PageRankIters: 2, Seed: 42,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dvm.Prepare(wl); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMemsysAccess measures the memory controller's per-line service
// path (channel select, queueing, reservation) — the innermost call of
// every simulated memory reference.
func BenchmarkMemsysAccess(b *testing.B) {
	ctl, err := dvm.NewMemController(dvm.MemConfig{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var now uint64
	for i := 0; i < b.N; i++ {
		now = ctl.Access(dvm.PA(uint64(i)<<6), now)
	}
}
