package core

import (
	"context"
	"testing"

	"github.com/dvm-sim/dvm/internal/graph"
)

func wikiTiny() Workload {
	d, _ := graph.DatasetByName("Wiki")
	return Workload{Algorithm: "PageRank", Dataset: d, Scale: ProfileTiny.Scale, PageRankIters: 2, Seed: 1}
}

func TestPrepareValidation(t *testing.T) {
	nf, _ := graph.DatasetByName("NF")
	fr, _ := graph.DatasetByName("FR")
	if _, err := Prepare(Workload{Algorithm: "BFS", Dataset: nf, Scale: 0.01}); err == nil {
		t.Error("BFS on bipartite dataset accepted")
	}
	if _, err := Prepare(Workload{Algorithm: "CF", Dataset: fr, Scale: 0.01}); err == nil {
		t.Error("CF on non-bipartite dataset accepted")
	}
	if _, err := Prepare(Workload{Algorithm: "Nope", Dataset: fr, Scale: 0.01}); err == nil {
		t.Error("unknown algorithm accepted")
	}
	p, err := Prepare(Workload{Algorithm: "CF", Dataset: nf, Scale: ProfileTiny.Scale, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !p.G.Bipartite {
		t.Error("CF graph not bipartite")
	}
}

func TestRunAllModes(t *testing.T) {
	p, err := Prepare(wikiTiny())
	if err != nil {
		t.Fatal(err)
	}
	cfg := ProfileTiny.SystemConfig()
	results, err := p.RunAll(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 7 {
		t.Fatalf("got %d results, want 7", len(results))
	}
	for m, r := range results {
		if r.Stats.Cycles == 0 {
			t.Errorf("%v: zero cycles", m)
		}
		if r.Stats.Faults != 0 {
			t.Errorf("%v: %d faults", m, r.Stats.Faults)
		}
		if m != ModeIdeal && r.PageTableBytes == 0 {
			t.Errorf("%v: no page table", m)
		}
		if !r.IdentityMapped {
			t.Errorf("%v: heap not identity mapped", m)
		}
	}
	// All modes compute the same work.
	base := results[ModeIdeal].Stats
	for m, r := range results {
		if r.Stats.EdgesProcessed != base.EdgesProcessed || r.Stats.Accesses != base.Accesses {
			t.Errorf("%v: work differs from ideal: %+v vs %+v", m, r.Stats, base)
		}
	}
	// DVM modes validate nearly everything as identity.
	for _, m := range []Mode{ModeDVMBM, ModeDVMPE, ModeDVMPEPlus} {
		c := results[m].IOMMU
		if c.DAVIdentity == 0 {
			t.Errorf("%v: no identity validations", m)
		}
		if c.FallbackTranslations > c.DAVIdentity/10 {
			t.Errorf("%v: too many fallbacks: %d vs %d identity", m, c.FallbackTranslations, c.DAVIdentity)
		}
	}
}

func TestFigure8Shape(t *testing.T) {
	p, err := Prepare(wikiTiny())
	if err != nil {
		t.Fatal(err)
	}
	cell, err := Figure8(p, ProfileTiny.SystemConfig())
	if err != nil {
		t.Fatal(err)
	}
	n := cell.Normalized
	if n[ModeIdeal] != 1 {
		t.Errorf("ideal normalized = %v", n[ModeIdeal])
	}
	// The paper's qualitative ordering.
	if n[ModeConv4K] < 1.2 {
		t.Errorf("4K = %.3f, want visible overhead (>1.2)", n[ModeConv4K])
	}
	if n[ModeDVMPE] > 1.25 {
		t.Errorf("DVM-PE = %.3f, want near-ideal", n[ModeDVMPE])
	}
	if n[ModeDVMPEPlus] > n[ModeDVMPE]+1e-9 {
		t.Errorf("preload hurt: PE+ %.3f > PE %.3f", n[ModeDVMPEPlus], n[ModeDVMPE])
	}
	if n[ModeConv4K] <= n[ModeDVMPE] {
		t.Errorf("4K %.3f not worse than DVM-PE %.3f", n[ModeConv4K], n[ModeDVMPE])
	}
	if n[ModeConv1G] > 1.15 {
		t.Errorf("1G = %.3f, want near-ideal", n[ModeConv1G])
	}
	if n[ModeDVMBM] <= n[ModeDVMPE]-1e-9 && n[ModeDVMBM] < 1.0 {
		t.Errorf("DVM-BM = %.3f implausible", n[ModeDVMBM])
	}
}

func TestFigure9Shape(t *testing.T) {
	p, err := Prepare(wikiTiny())
	if err != nil {
		t.Fatal(err)
	}
	cell, err := Figure8(p, ProfileTiny.SystemConfig())
	if err != nil {
		t.Fatal(err)
	}
	fig9, err := Figure9(cell)
	if err != nil {
		t.Fatal(err)
	}
	if fig9.Normalized[ModeConv4K] != 1 {
		t.Errorf("baseline not 1: %v", fig9.Normalized[ModeConv4K])
	}
	// DVM-PE must save substantial MMU energy vs the 4K baseline
	// (paper: 76% reduction).
	if fig9.Normalized[ModeDVMPE] > 0.6 {
		t.Errorf("DVM-PE energy = %.3f of baseline, want < 0.6", fig9.Normalized[ModeDVMPE])
	}
	// Squashed preloads may only add energy on top of DVM-PE.
	if fig9.Normalized[ModeDVMPEPlus] < fig9.Normalized[ModeDVMPE]-1e-9 {
		t.Errorf("PE+ %.4f below PE %.4f", fig9.Normalized[ModeDVMPEPlus], fig9.Normalized[ModeDVMPE])
	}
}

func TestFigure2Rates(t *testing.T) {
	p, err := Prepare(wikiTiny())
	if err != nil {
		t.Fatal(err)
	}
	row, err := Figure2(p, ProfileTiny.SystemConfig())
	if err != nil {
		t.Fatal(err)
	}
	if row.MissRate4K <= 0.02 {
		t.Errorf("4K miss rate = %.4f, want graph-workload-like (>2%%)", row.MissRate4K)
	}
	if row.MissRate4K > 0.6 {
		t.Errorf("4K miss rate = %.4f implausibly high", row.MissRate4K)
	}
	if row.Lookups4K == 0 || row.Lookups2M == 0 {
		t.Errorf("TLB lookups not recorded for both runs: 4K %d, 2M %d", row.Lookups4K, row.Lookups2M)
	}
}

func TestTable1Shape(t *testing.T) {
	// Table 1's shape needs a heap of tens of MB so leaf page-table
	// pages dominate; use FR at 1/4 scale (~40 MB heap).
	fr, _ := graph.DatasetByName("FR")
	p, err := Prepare(Workload{Algorithm: "PageRank", Dataset: fr, Scale: 0.25, PageRankIters: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	row, err := Table1(p, SystemConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if row.PEBytes*5 > row.StdBytes {
		t.Errorf("PE table %d not ≪ standard %d", row.PEBytes, row.StdBytes)
	}
	if row.L1Fraction < 0.75 {
		t.Errorf("L1 fraction = %.3f, want > 0.75", row.L1Fraction)
	}
	// At paper scale (GB heaps) the fraction approaches 0.99; at this
	// scale the PE table must already collapse to a handful of nodes.
	if row.PEBytes > 64<<10 {
		t.Errorf("PE table = %d B, want tens of KB", row.PEBytes)
	}
}

func TestProfiles(t *testing.T) {
	if _, err := ProfileByName("nope"); err == nil {
		t.Error("unknown profile accepted")
	}
	p, err := ProfileByName("small")
	if err != nil || p.Name != "small" {
		t.Errorf("small profile: %+v %v", p, err)
	}
	w := ProfileTiny.Workloads()
	if len(w) != 15 {
		t.Fatalf("matrix has %d cells, want 15", len(w))
	}
	algs := map[string]int{}
	for _, x := range w {
		algs[x.Algorithm]++
	}
	if algs["BFS"] != 4 || algs["PageRank"] != 4 || algs["SSSP"] != 4 || algs["CF"] != 3 {
		t.Errorf("matrix composition wrong: %v", algs)
	}
}

func TestPEFieldsAblation(t *testing.T) {
	p, err := Prepare(wikiTiny())
	if err != nil {
		t.Fatal(err)
	}
	for _, fields := range []int{8, 32} {
		cfg := ProfileTiny.SystemConfig()
		cfg.PEFields = fields
		r, err := p.Run(ModeDVMPE, cfg)
		if err != nil {
			t.Fatalf("fields=%d: %v", fields, err)
		}
		if r.Stats.Cycles == 0 || r.Stats.Faults != 0 {
			t.Errorf("fields=%d: %+v", fields, r.Stats)
		}
	}
}

func TestTLBMissRateVsSize(t *testing.T) {
	p, err := Prepare(wikiTiny())
	if err != nil {
		t.Fatal(err)
	}
	rates, err := TLBMissRateVsSizeCtx(context.Background(), p, ProfileTiny.SystemConfig(), []int{2, 16, 4096}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Bigger TLBs can only help.
	if rates[2] < rates[16] || rates[16] < rates[4096] {
		t.Errorf("miss rates not monotone: %v", rates)
	}
	if rates[4096] > 0.02 {
		t.Errorf("huge TLB still misses: %v", rates[4096])
	}
}

func TestRunDeterminism(t *testing.T) {
	// Two full runs of the same (workload, mode, seed) must be
	// bit-identical — the whole simulator is seeded and single-threaded.
	p, err := Prepare(wikiTiny())
	if err != nil {
		t.Fatal(err)
	}
	cfg := ProfileTiny.SystemConfig()
	for _, mode := range []Mode{ModeConv4K, ModeDVMPEPlus} {
		a, err := p.Run(mode, cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := p.Run(mode, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if a.Stats != b.Stats || a.IOMMU != b.IOMMU || a.TLBMissRate != b.TLBMissRate {
			t.Errorf("%v: runs differ:\n%+v\n%+v", mode, a, b)
		}
	}
}

func TestRunResultPlausibility(t *testing.T) {
	p, err := Prepare(wikiTiny())
	if err != nil {
		t.Fatal(err)
	}
	r, err := p.Run(ModeConv4K, ProfileTiny.SystemConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r.TLBMissRate <= 0 || r.TLBMissRate >= 1 {
		t.Errorf("TLBMissRate = %v", r.TLBMissRate)
	}
	if r.DRAM.Accesses == 0 {
		t.Error("no DRAM activity recorded")
	}
	if r.Energy.Total <= 0 {
		t.Error("no MMU energy recorded")
	}
	if r.HeapBytes == 0 || r.PageTableBytes == 0 {
		t.Errorf("footprints missing: heap=%d table=%d", r.HeapBytes, r.PageTableBytes)
	}
	// DRAM traffic includes both data and walker references.
	if r.DRAM.Accesses < r.IOMMU.WalkMemRefs {
		t.Errorf("DRAM %d < walker refs %d", r.DRAM.Accesses, r.IOMMU.WalkMemRefs)
	}
}
