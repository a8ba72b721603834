package core

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"reflect"
	"strings"
	"testing"

	"github.com/dvm-sim/dvm/internal/accel"
	"github.com/dvm-sim/dvm/internal/addr"
	"github.com/dvm-sim/dvm/internal/chaos"
	"github.com/dvm-sim/dvm/internal/graph"
	"github.com/dvm-sim/dvm/internal/obs"
	"github.com/dvm-sim/dvm/internal/osmodel"
	"github.com/dvm-sim/dvm/internal/pagetable"
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

// table1Fresh is Table1 on a private machine: its own system, layout
// and 4K table per call, the reference TestTable1OnCachedMachine holds
// the cached-machine Table1 to.
func table1Fresh(p *Prepared, cfg SystemConfig) (Table1Row, error) {
	cfg = cfg.withDefaults()
	row := Table1Row{Input: p.Workload.Dataset.Name}
	sys, err := osmodel.NewSystem(cfg.MemBytes)
	if err != nil {
		return row, err
	}
	proc := sys.NewProcess(osmodel.Policy{IdentityMapHeap: true, Seed: cfg.Seed})
	if _, err := accel.BuildLayout(proc, p.G, p.Prog.PropBytes); err != nil {
		return row, err
	}
	std, err := proc.BuildCanonicalTable(false)
	if err != nil {
		return row, err
	}
	pe, err := std.Compacted()
	if err != nil {
		return row, err
	}
	stdStats, err := std.SizeStats()
	if err != nil {
		return row, err
	}
	peStats, err := pe.SizeStats()
	if err != nil {
		return row, err
	}
	row.StdBytes = stdStats.Bytes
	row.L1Fraction = stdStats.L1Fraction
	row.PEBytes = peStats.Bytes
	return row, nil
}

// TestTable1OnCachedMachine: for every tiny Table 1 workload, Table1
// read off the cached machine's tables equals the fresh-machine
// reference, and a second call builds no table. A layout-only Prepared,
// which lays out the dataset's shape and has no graph, gives the same
// row.
func TestTable1OnCachedMachine(t *testing.T) {
	n := 0
	for _, w := range ProfileTiny.Workloads() {
		if w.Algorithm != "PageRank" && w.Algorithm != "CF" {
			continue
		}
		n++
		p, err := Prepare(w)
		if err != nil {
			t.Fatal(err)
		}
		want, err := table1Fresh(p, ProfileTiny.SystemConfig())
		if err != nil {
			t.Fatal(err)
		}
		for call, wantBuilds := range []bool{true, false} {
			cfg := ProfileTiny.SystemConfig()
			cfg.Spans = obs.NewSpanRecorder()
			got, err := Table1(p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("%s call %d: Table1 = %+v, fresh machine %+v", w.Dataset.Name, call+1, got, want)
			}
			builds := 0
			for _, sp := range cfg.Spans.Spans() {
				if strings.HasPrefix(sp.Name, "ptbuild:") {
					builds++
				}
			}
			if (builds > 0) != wantBuilds {
				t.Errorf("%s call %d recorded %d ptbuild spans, want builds=%v", w.Dataset.Name, call+1, builds, wantBuilds)
			}
		}
		l, err := PrepareLayout(w)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := Table1(l, ProfileTiny.SystemConfig()); err != nil || got != want {
			t.Errorf("%s: layout-only Table1 = %+v (err %v), fresh machine %+v", w.Dataset.Name, got, err, want)
		}
	}
	if n != 7 {
		t.Errorf("%d Table 1 workloads, want 7", n)
	}
}

// TestLayoutOnlyPreparedCannotRun: a PrepareLayout Prepared has no
// graph, so Run and the artifacts built on it return an error instead
// of panicking; PrepareLayout rejects what Prepare rejects.
func TestLayoutOnlyPreparedCannotRun(t *testing.T) {
	p, err := PrepareLayout(wikiTiny())
	if err != nil {
		t.Fatal(err)
	}
	if p.G != nil {
		t.Fatal("layout-only Prepared holds a graph")
	}
	cfg := ProfileTiny.SystemConfig()
	if _, err := p.Run(ModeConv4K, cfg); err == nil || !strings.Contains(err.Error(), "layout only") {
		t.Errorf("Run = %v, want a layout-only error", err)
	}
	if _, err := Figure2(p, cfg); err == nil {
		t.Error("Figure2 on a layout-only Prepared succeeded")
	}
	if _, err := Figure8(p, cfg); err == nil {
		t.Error("Figure8 on a layout-only Prepared succeeded")
	}

	nf, _ := graph.DatasetByName("NF")
	fr, _ := graph.DatasetByName("FR")
	for _, w := range []Workload{
		{Algorithm: "BFS", Dataset: nf, Scale: 0.01},
		{Algorithm: "CF", Dataset: fr, Scale: 0.01},
		{Algorithm: "Nope", Dataset: fr, Scale: 0.01},
		{Algorithm: "BFS", Dataset: fr, Scale: 1.5},
	} {
		if _, err := PrepareLayout(w); err == nil {
			t.Errorf("PrepareLayout accepted %s on %s at scale %g", w.Algorithm, w.Dataset.Name, w.Scale)
		}
	}
}

// peTableRebuild is the PE table built without the cached 4K table: a
// second canonical build, compacted at the default fan-out or copied
// page by page into a table at any other.
func peTableRebuild(proc *osmodel.Process, peFields int) (*pagetable.Table, error) {
	if peFields == pagetable.DefaultPEFields {
		return proc.BuildCanonicalTable(true)
	}
	tbl, err := pagetable.New(pagetable.Config{PEFields: peFields})
	if err != nil {
		return nil, err
	}
	std, err := proc.BuildCanonicalTable(false)
	if err != nil {
		return nil, err
	}
	var mapErr error
	if err := std.ForEachPage(func(va addr.VA, pa addr.PA, perm addr.Perm) {
		if mapErr == nil {
			mapErr = tbl.Map(va, pa, perm, addr.PageSize4K)
		}
	}); err != nil {
		return nil, err
	}
	if mapErr != nil {
		return nil, mapErr
	}
	return tbl.Compacted()
}

// TestDerivedPETableMatchesBuild: the PE table a cached machine derives
// from its 4K table equals a second build compacted in place, node for
// node (simulated PAs and the node allocator included), for all 15 tiny
// workloads at the default fan-out and for the ablation fan-outs on
// Figure 8's first workload; deriving leaves the shared 4K table as
// built. The pagetable package's TestCompactedMatchesInPlaceTinyWorkloads
// runs its Compacted checks on the same 4K tables.
func TestDerivedPETableMatchesBuild(t *testing.T) {
	cfg := ProfileTiny.SystemConfig().withDefaults()
	for i, w := range ProfileTiny.Workloads() {
		p, err := Prepare(w)
		if err != nil {
			t.Fatal(err)
		}
		st, err := p.machine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fanouts := []int{pagetable.DefaultPEFields}
		if i == 0 {
			fanouts = append(fanouts, 4, 8, 32, 64)
		}
		for _, fields := range fanouts {
			got, err := p.stateFor(st, ModeDVMPE, fields, nil)
			if err != nil {
				t.Fatal(err)
			}
			want, err := peTableRebuild(st.proc, fields)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Table, want) {
				t.Errorf("%s/%s fan-out %d: derived PE table differs from a rebuild: %+v, want %+v",
					w.Algorithm, w.Dataset.Name, fields, sizeStats(t, got.Table), sizeStats(t, want))
			}
		}
		// Deriving needed the 4K table, so it is cached for Conv4K and
		// Table 1, unchanged: one 4K build per machine.
		if n := len(st.tables); n != len(fanouts)+1 {
			t.Errorf("%s/%s: machine caches %d tables, want %d PE tables and one 4K", w.Algorithm, w.Dataset.Name, n, len(fanouts))
		}
		std, err := p.stateFor(st, ModeConv4K, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := st.proc.BuildCanonicalTable(false)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(std.Table, want) {
			t.Errorf("%s/%s: the cached 4K table changed when the PE tables were derived from it", w.Algorithm, w.Dataset.Name)
		}
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

// sizeStats is tbl.SizeStats, failing the test on an error.
func sizeStats(t testing.TB, tbl *pagetable.Table) pagetable.SizeStats {
	t.Helper()
	s, err := tbl.SizeStats()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// tableFingerprint is what a run could observe of a page table: its size
// statistics, a digest of every mapped page and the walks at probe VAs.
type tableFingerprint struct {
	stats pagetable.SizeStats
	pages uint64 // FNV-1a digest of ForEachPage's (va, pa, perm) stream
	walks []pagetable.WalkResult
}

func fingerprint(t *testing.T, tbl *pagetable.Table, probes []addr.VA) tableFingerprint {
	t.Helper()
	f := tableFingerprint{stats: sizeStats(t, tbl)}
	h := fnv.New64a()
	var buf [17]byte
	if err := tbl.ForEachPage(func(va addr.VA, pa addr.PA, perm addr.Perm) {
		binary.LittleEndian.PutUint64(buf[:8], uint64(va))
		binary.LittleEndian.PutUint64(buf[8:16], uint64(pa))
		buf[16] = byte(perm)
		h.Write(buf[:])
	}); err != nil {
		t.Fatal(err)
	}
	f.pages = h.Sum64()
	for _, va := range probes {
		f.walks = append(f.walks, tbl.Walk(va))
	}
	return f
}

// TestRunsLeaveCachedTablesUnchanged guards the design rule that an
// address space is fixed once laid out: running every registered mode on
// one Prepared, clean and with chaos armed, leaves each table the
// machine cached — 4K, PE, 2M and 1G — exactly as it was built, by size,
// by every mapped page and by the walks at the first, middle and last
// byte of each mapping and just past it.
func TestRunsLeaveCachedTablesUnchanged(t *testing.T) {
	p, err := Prepare(wikiTiny())
	if err != nil {
		t.Fatal(err)
	}
	cfg := ProfileTiny.SystemConfig()
	runAll := func(cfg SystemConfig) {
		t.Helper()
		for _, m := range RegisteredModes() {
			if _, err := p.Run(m, cfg); err != nil {
				t.Fatalf("%v: %v", m, err)
			}
		}
	}
	runAll(cfg)
	st, err := p.machine(cfg.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	var probes []addr.VA
	for _, v := range st.proc.VMAs() {
		probes = append(probes, v.R.Start, v.R.Start+addr.VA(v.R.Size/2), v.R.End()-1, v.R.End())
	}
	built := make(map[tableKey]*pagetable.Table)
	want := make(map[tableKey]tableFingerprint)
	for key, e := range st.tables {
		built[key] = e.table
		want[key] = fingerprint(t, e.table, probes)
	}
	if len(built) != 4 {
		t.Fatalf("machine caches %d tables, want 4 (4K, PE, 2M, 1G)", len(built))
	}

	chaosCfg := cfg
	chaosCfg.Chaos = &chaos.Config{Seed: 11, Rate: 0.05}
	for _, run := range []struct {
		name string
		cfg  SystemConfig
	}{{"clean", cfg}, {"chaos", chaosCfg}} {
		runAll(run.cfg)
		if len(st.tables) != len(built) {
			t.Errorf("after %s runs the machine caches %d tables, want %d", run.name, len(st.tables), len(built))
		}
		for key, tbl := range built {
			if e := st.tables[key]; e == nil || e.table != tbl {
				t.Errorf("after %s runs table %+v was replaced", run.name, key)
				continue
			}
			if got := fingerprint(t, tbl, probes); !reflect.DeepEqual(got, want[key]) {
				t.Errorf("after %s runs table %+v changed: %+v, want %+v", run.name, key, got.stats, want[key].stats)
			}
		}
	}
}
