// Package report regenerates every table and figure of the paper's
// evaluation as formatted text, one generator per artifact, all listed
// in artifacts and rendered through Sweep. The reproduction commands
// (cmd/dvmrepro and the standalone tools) and the repository's
// EXPERIMENTS.md are produced through this package.
//
// Each artifact is a matrix of independent simulations, so the
// generators fan their cells out on internal/runner's worker pool
// through runCells, the one cell protocol: Options.Jobs bounds the
// concurrency, progress lines are emitted as cells complete, and table
// rows are always rendered in cell-index order, making the rendered
// output byte-identical at every Jobs value.
package report

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"github.com/dvm-sim/dvm/internal/chaos"
	"github.com/dvm-sim/dvm/internal/core"
	"github.com/dvm-sim/dvm/internal/cpu"
	"github.com/dvm-sim/dvm/internal/graph"
	"github.com/dvm-sim/dvm/internal/mmu"
	"github.com/dvm-sim/dvm/internal/obs"
	"github.com/dvm-sim/dvm/internal/results"
	"github.com/dvm-sim/dvm/internal/runner"
	"github.com/dvm-sim/dvm/internal/shbench"
	"github.com/dvm-sim/dvm/internal/virt"
)

// Options configures how the generators execute. The zero value runs one
// experiment cell per CPU with progress reporting disabled.
type Options struct {
	// Jobs bounds how many experiment cells run concurrently: 0 uses
	// runtime.GOMAXPROCS(0), 1 reproduces the sequential sweep
	// bit-for-bit, N > 1 keeps up to N cells in flight.
	Jobs int
	// Progress receives one line per completed cell (completion order);
	// nil disables reporting. Lines are prefixed with a live
	// "[done/total pct eta]" progress header.
	Progress runner.Logf
	// Metrics, when non-nil, accumulates every simulation cell's
	// registry snapshot plus harness counters (runner.cells.done).
	// Merging is a commutative sum, so the collected snapshot is
	// byte-identical at every Jobs value.
	Metrics *obs.Collector
	// Tracer, when non-nil, is attached to every simulation the
	// generators run (see core.SystemConfig.Tracer).
	Tracer *obs.Tracer
	// Prepared, when non-nil, deduplicates workload preparation (graph
	// generation, page-table construction) across generators and -j
	// workers. Results are unchanged — the cache only shares immutable
	// inputs. Callers regenerating several artifacts should pass one
	// cache to all of them.
	Prepared *core.PreparedCache
	// Workers, when non-nil, is the shared extra-worker pool bounding
	// *all* concurrency of the invocation: cell-level workers hold its
	// tokens (via runner.Map) and parallel CSR builds borrow from the
	// same pool — so one -j value never oversubscribes the machine. Nil preserves the plain per-level Jobs
	// semantics; results are byte-identical either way. Commands set it
	// to runner.BudgetFor(jobs).
	Workers *runner.Budget
	// Ctx, when non-nil, cancels the sweep: generators stop claiming
	// cells when it is done (Ctrl-C in the commands). Nil means
	// context.Background().
	Ctx context.Context
	// Checkpoint, when non-nil, persists every completed cell and
	// serves cells a previous interrupted run already finished.
	// Restored cells replay the same metrics/progress side effects as
	// computed ones, so the rendered tables and the -metrics snapshot
	// are byte-identical to an uninterrupted run.
	Checkpoint *core.Checkpoint
	// Chaos, when non-nil with Rate > 0, arms deterministic fault
	// injection in every simulation the generators run (see
	// core.SystemConfig.Chaos). Nil or rate 0 is the clean path,
	// bit-for-bit.
	Chaos *chaos.Config
	// Spans, when non-nil, records wall-clock phase spans (workload
	// preparation, page-table builds, cell execution, timing replay) for Chrome-trace/Perfetto export. Spans are a
	// debugging artifact: wall time is nondeterministic, so they never
	// feed tables or metrics.
	Spans *obs.SpanRecorder
	// Board, when non-nil, publishes each artifact's live Progress so a
	// concurrent reader (the /progress HTTP endpoint) can serve the
	// current sweep state. Setting it forces progress accounting on even
	// when Progress (the line sink) is nil.
	Board *runner.ProgressBoard
	// Modes, when non-nil, selects which registered modes the mode-matrix
	// artifacts (Figure 8/9) run and render as columns, in the given
	// order; the list must include core.ModeIdeal (the normalization
	// baseline). Nil runs core.AllModes — the paper's seven columns,
	// byte-identical to the historical artifact. Set it through
	// Spec.Resolve, whose Key folds the mode set into the checkpoint
	// namespace.
	Modes []core.Mode
	// CellTimeout, when positive, puts every experiment cell under a
	// watchdog: a cell running longer is abandoned and surfaces as a
	// *runner.CellError wrapping context.DeadlineExceeded. Zero (the
	// historical default) lets cells run unbounded. The service tier
	// sets it so one wedged simulation cannot hang a daemon job forever.
	CellTimeout time.Duration
}

// ctx returns the sweep context (Background when unset).
func (o Options) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// mapCells fans an artifact's cells out on the worker pool under the
// options' budget and cell watchdog. Results are collected by cell
// index, so tables stay byte-identical at every Jobs value.
func mapCells[T any](o Options, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	return runner.Map(o.ctx(), runner.Options{
		Jobs:        o.Jobs,
		Budget:      o.Workers,
		CellTimeout: o.CellTimeout,
	}, n, fn)
}

// runCells runs an artifact's n cells through mapCells, one protocol
// for every cell of every generator: cell i is served from the
// checkpoint under key(i) when a previous run completed it, and is
// computed and recorded otherwise; done then folds it into the metrics
// (or cross-checks it) and returns its progress line, and the cell is
// counted into runner.cells.done once. Restored and computed cells
// therefore contribute identically to every artifact.
func runCells[T any](o Options, progress *runner.Progress, n int, key func(i int) string,
	compute func(ctx context.Context, i int) (T, error), done func(i int, v T) (string, error)) ([]T, error) {
	return mapCells(o, n, func(ctx context.Context, i int) (T, error) {
		var v T
		k := key(i)
		ok, err := o.Checkpoint.Lookup(k, &v)
		if err != nil {
			return v, err
		}
		if !ok {
			if v, err = compute(ctx, i); err != nil {
				return v, err
			}
			if err := o.Checkpoint.Record(k, v); err != nil {
				return v, fmt.Errorf("report: checkpointing %s: %w", k, err)
			}
		}
		line, err := done(i, v)
		if err != nil {
			return v, err
		}
		o.Metrics.Inc("runner.cells.done", 1)
		progress.Done("%s", line)
		return v, nil
	})
}

// prepare resolves a workload through the shared cache when one is
// configured (a nil cache degrades to plain core.Prepare), lending the
// shared worker pool to the deterministic parts of generation. The
// span covers graph generation and CSR construction; cache hits show
// up as near-zero spans.
func (o Options) prepare(w core.Workload) (*core.Prepared, error) {
	sp := o.Spans.Begin("prepare:" + w.Algorithm + "/" + w.Dataset.Name)
	defer sp.End()
	return o.Prepared.PrepareB(w, o.Workers)
}

// prepareLayout is prepare for an artifact that reads only the
// workload's layout and page tables: it generates no graph.
func (o Options) prepareLayout(w core.Workload) (*core.Prepared, error) {
	sp := o.Spans.Begin("prepare:" + w.Algorithm + "/" + w.Dataset.Name)
	defer sp.End()
	return o.Prepared.PrepareLayout(w)
}

// progressFor returns the live progress sink over total cells, which
// adds the count/percent/ETA prefix to each line; it is nil (and
// nil-safe) when reporting is off.
func (o Options) progressFor(total int) *runner.Progress {
	logf := o.Progress
	if logf == nil && o.Board != nil {
		// The /progress endpoint needs live accounting even with line
		// reporting off; a no-op sink keeps NewProgress's nil contract.
		logf = func(string, ...interface{}) {}
	}
	p := runner.NewProgress(total, logf)
	o.Board.Set(p)
	return p
}

// system resolves the profile's machine configuration with the
// options' tracer and fault-injection config attached.
func (o Options) system(prof core.Profile) core.SystemConfig {
	cfg := prof.SystemConfig()
	cfg.Tracer = o.Tracer
	cfg.Workers = o.Workers
	cfg.Chaos = o.Chaos
	cfg.Spans = o.Spans
	return cfg
}

// collect cross-checks one RunResult against its own registry snapshot
// (so a counter/table divergence aborts the artifact instead of
// silently skewing it) and folds the snapshot into the collector.
// runner.cells.done is counted separately, once per cell by runCells.
func (o Options) collect(r core.RunResult) error {
	if err := core.CrossCheck(r); err != nil {
		return err
	}
	o.Metrics.Add(r.Metrics)
	// Host wall time per cell is nondeterministic, so it goes into the
	// collector's volatile side — served by the live /metrics endpoint,
	// never part of the exported deterministic snapshot.
	o.Metrics.Observe("runner.cell.wall.us", uint64(r.Wall.Microseconds()))
	return nil
}

// figure2 regenerates the TLB miss-rate figure: one row per workload/input,
// 4 KB vs 2 MB pages.
func figure2(prof core.Profile, w io.Writer, opts Options) error {
	t := results.NewTable(
		fmt.Sprintf("Figure 2: TLB miss rates (%d-entry FA TLB, profile %s; paper: 128-entry, ~21%% avg at 4K, 2M within 1%%)",
			prof.TLBEntries, prof.Name),
		"Workload", "Input", "4K miss", "2M miss", "4K lookups", "2M lookups")
	wls := prof.Workloads()
	rows, err := runCells(opts, opts.progressFor(len(wls)), len(wls),
		func(i int) string { return "fig2/" + wls[i].Algorithm + "/" + wls[i].Dataset.Name },
		func(_ context.Context, i int) (core.Figure2Row, error) {
			p, err := opts.prepare(wls[i])
			if err != nil {
				return core.Figure2Row{}, err
			}
			return core.Figure2(p, opts.system(prof))
		},
		func(_ int, row core.Figure2Row) (string, error) {
			opts.Metrics.Add(obs.Merge(row.Metrics4K, row.Metrics2M))
			return fmt.Sprintf("fig2 %s/%s: 4K %.1f%% 2M %.1f%%", row.Algorithm, row.Dataset, 100*row.MissRate4K, 100*row.MissRate2M), nil
		})
	if err != nil {
		return err
	}
	var sum4, sum2 float64
	for _, row := range rows {
		// Cross-check the rendered miss-rate denominators against the
		// TLB's own registry counters: the table and the hardware
		// model must agree to the last lookup.
		if got := row.Metrics4K.Get("mmu.tlb.hits") + row.Metrics4K.Get("mmu.tlb.misses"); got != row.Lookups4K {
			return fmt.Errorf("report: fig2 %s/%s: 4K lookups %d but registry reads %d", row.Algorithm, row.Dataset, row.Lookups4K, got)
		}
		if got := row.Metrics2M.Get("mmu.tlb.hits") + row.Metrics2M.Get("mmu.tlb.misses"); got != row.Lookups2M {
			return fmt.Errorf("report: fig2 %s/%s: 2M lookups %d but registry reads %d", row.Algorithm, row.Dataset, row.Lookups2M, got)
		}
		t.MustAddRow(row.Algorithm, row.Dataset, results.Pct(row.MissRate4K), results.Pct(row.MissRate2M),
			fmt.Sprintf("%d", row.Lookups4K), fmt.Sprintf("%d", row.Lookups2M))
		sum4 += row.MissRate4K
		sum2 += row.MissRate2M
	}
	n := float64(len(rows))
	t.MustAddRow("Average", "", results.Pct(sum4/n), results.Pct(sum2/n), "", "")
	return t.WriteASCII(w)
}

// table1Workloads lists Table 1's inputs: the PageRank and CF heaps.
func table1Workloads(prof core.Profile) []core.Workload {
	var wls []core.Workload
	for _, wl := range prof.Workloads() {
		if wl.Algorithm == "PageRank" || wl.Algorithm == "CF" {
			wls = append(wls, wl)
		}
	}
	return wls
}

// table1 regenerates the page-table-size table for the PageRank and CF
// heaps. The tables depend only on the heap layout, so no graph is
// generated.
func table1(prof core.Profile, w io.Writer, opts Options) error {
	t := results.NewTable(
		fmt.Sprintf("Table 1: page table sizes (profile %s; paper: PEs cut tables from MBs to ~48-68 KB, L1 PTEs ~98%%)", prof.Name),
		"Input", "Page tables", "% L1 PTEs", "With PEs")
	wls := table1Workloads(prof)
	rows, err := runCells(opts, opts.progressFor(len(wls)), len(wls),
		func(i int) string { return "table1/" + wls[i].Dataset.Name },
		func(_ context.Context, i int) (core.Table1Row, error) {
			p, err := opts.prepareLayout(wls[i])
			if err != nil {
				return core.Table1Row{}, err
			}
			return core.Table1(p, opts.system(prof))
		},
		func(_ int, row core.Table1Row) (string, error) {
			return fmt.Sprintf("table1 %s: std %s -> PE %s", row.Input, results.KB(row.StdBytes), results.KB(row.PEBytes)), nil
		})
	if err != nil {
		return err
	}
	for _, row := range rows {
		t.MustAddRow(row.Input, results.KB(row.StdBytes), results.F(row.L1Fraction, 3), results.KB(row.PEBytes))
	}
	return t.WriteASCII(w)
}

// table3 prints the dataset registry (paper-scale sizes plus the sizes
// generated at the profile's scale). The scaled sizes are the datasets'
// shapes (graph.DatasetSpec.Shape), so no graph is generated.
func table3(prof core.Profile, w io.Writer, opts Options) error {
	t := results.NewTable(
		fmt.Sprintf("Table 3: graph datasets (paper scale, generated at scale %.4g for profile %s)", prof.Scale, prof.Name),
		"Graph", "Vertices", "Edges", "Heap (paper)", "V (scaled)", "E (scaled)")
	// Exported fields so the cell round-trips through checkpoint JSON.
	type scaled struct{ V, E int }
	ds := graph.Datasets
	rows, err := runCells(opts, opts.progressFor(len(ds)), len(ds),
		func(i int) string { return "table3/" + ds[i].Name },
		func(_ context.Context, i int) (scaled, error) {
			v, e, err := ds[i].Shape(prof.Scale)
			return scaled{v, e}, err
		},
		func(i int, row scaled) (string, error) {
			return fmt.Sprintf("table3 %s: V=%d E=%d", ds[i].Name, row.V, row.E), nil
		})
	if err != nil {
		return err
	}
	for i, d := range ds {
		t.MustAddRow(d.Name, fmt.Sprintf("%d", d.Vertices), fmt.Sprintf("%d", d.Edges),
			results.Bytes(d.HeapBytes), fmt.Sprintf("%d", rows[i].V), fmt.Sprintf("%d", rows[i].E))
	}
	return t.WriteASCII(w)
}

// figure8And9 runs the full mode matrix once and renders both the
// normalized-execution-time figure (8) and the normalized-energy figure
// (9).
func figure8And9(prof core.Profile, w io.Writer, opts Options) error {
	modes := opts.Modes
	if modes == nil {
		modes = core.AllModes
	}
	head8 := []string{"Workload", "Input"}
	head9 := []string{"Workload", "Input"}
	for _, m := range modes {
		head8 = append(head8, m.String())
		if m != core.ModeIdeal {
			head9 = append(head9, m.String())
		}
	}
	t8 := results.NewTable(
		fmt.Sprintf("Figure 8: execution time normalized to Ideal (profile %s; paper avgs: 4K 2.19x, 2M 2.14x, 1G ~1x, BM 1.23x, PE 1.035x, PE+ 1.017x)", prof.Name),
		head8...)
	t9 := results.NewTable(
		fmt.Sprintf("Figure 9: MMU dynamic energy normalized to 4K baseline (profile %s; paper: PE ~0.24x, BM ~0.85x)", prof.Name),
		head9...)
	wls := prof.Workloads()
	// Exported fields so the cell round-trips through checkpoint JSON.
	type pair struct {
		Cell core.Figure8Cell
		Fig9 core.Figure9Cell
	}
	// Parallelism is across cells; each cell runs its modes sequentially
	// so a full sweep never has more than Jobs runs in flight.
	cells, err := runCells(opts, opts.progressFor(len(wls)), len(wls),
		func(i int) string { return "fig8/" + wls[i].Algorithm + "/" + wls[i].Dataset.Name },
		func(ctx context.Context, i int) (pair, error) {
			p, err := opts.prepare(wls[i])
			if err != nil {
				return pair{}, err
			}
			cell, err := core.Figure8ModesCtx(ctx, p, modes, opts.system(prof), 1)
			if err != nil {
				return pair{}, err
			}
			fig9, err := core.Figure9(cell)
			if err != nil {
				return pair{}, err
			}
			return pair{cell, fig9}, nil
		},
		func(_ int, pr pair) (string, error) {
			cell := pr.Cell
			for _, m := range modes {
				if err := opts.collect(cell.Results[m]); err != nil {
					return "", fmt.Errorf("fig8 %s/%s %v: %w", cell.Algorithm, cell.Dataset, m, err)
				}
			}
			return fmt.Sprintf("fig8 %s/%s: 4K %.2fx PE %.3fx PE+ %.3fx BM %.2fx",
				cell.Algorithm, cell.Dataset, cell.Normalized[core.ModeConv4K],
				cell.Normalized[core.ModeDVMPE], cell.Normalized[core.ModeDVMPEPlus], cell.Normalized[core.ModeDVMBM]), nil
		})
	if err != nil {
		return err
	}
	sums8 := make(map[core.Mode]float64)
	sums9 := make(map[core.Mode]float64)
	for _, c := range cells {
		row8 := []string{c.Cell.Algorithm, c.Cell.Dataset}
		row9 := []string{c.Cell.Algorithm, c.Cell.Dataset}
		for _, m := range modes {
			row8 = append(row8, results.F(c.Cell.Normalized[m], 3))
			sums8[m] += c.Cell.Normalized[m]
			if m != core.ModeIdeal {
				row9 = append(row9, results.F(c.Fig9.Normalized[m], 3))
				sums9[m] += c.Fig9.Normalized[m]
			}
		}
		t8.MustAddRow(row8...)
		t9.MustAddRow(row9...)
	}
	n := float64(len(cells))
	avg8 := []string{"Average", ""}
	avg9 := []string{"Average", ""}
	for _, m := range modes {
		avg8 = append(avg8, results.F(sums8[m]/n, 3))
		if m != core.ModeIdeal {
			avg9 = append(avg9, results.F(sums9[m]/n, 3))
		}
	}
	t8.MustAddRow(avg8...)
	t9.MustAddRow(avg9...)
	if err := t8.WriteASCII(w); err != nil {
		return err
	}
	if _, err := io.WriteString(w, "\n"); err != nil {
		return err
	}
	return t9.WriteASCII(w)
}

// table4Cell is one Table 4 measurement: an experiment at a memory size.
type table4Cell struct {
	exp shbench.Experiment
	mem uint64
}

// table4Cells lists Table 4's cells, experiment-major.
func table4Cells() []table4Cell {
	var cells []table4Cell
	for _, exp := range shbench.Experiments {
		for _, mem := range shbench.MemorySizes {
			cells = append(cells, table4Cell{exp, mem})
		}
	}
	return cells
}

// table4 regenerates the identity-mapping fragmentation table.
func table4(_ core.Profile, w io.Writer, opts Options) error {
	t := results.NewTable(
		"Table 4: % of system memory allocated with identity mapping intact (paper: 95-97%)",
		"System Memory", "Expt 1", "Expt 2", "Expt 3")
	cellsIn := table4Cells()
	pcts, err := runCells(opts, opts.progressFor(len(cellsIn)), len(cellsIn),
		func(i int) string { return fmt.Sprintf("table4/%d/%d", cellsIn[i].exp.ID, cellsIn[i].mem) },
		func(_ context.Context, i int) (float64, error) {
			r, err := shbench.Run(cellsIn[i].exp, cellsIn[i].mem)
			if err != nil {
				return 0, err
			}
			return r.Percent, nil
		},
		func(i int, pct float64) (string, error) {
			return fmt.Sprintf("table4 expt %d %s: %.1f%%", cellsIn[i].exp.ID, results.Bytes(cellsIn[i].mem), pct), nil
		})
	if err != nil {
		return err
	}
	type key struct {
		expt int
		mem  uint64
	}
	cells := map[key]float64{}
	for i, c := range cellsIn {
		cells[key{c.exp.ID, c.mem}] = pcts[i]
	}
	for _, mem := range shbench.MemorySizes {
		t.MustAddRow(results.Bytes(mem),
			fmt.Sprintf("%.1f%%", cells[key{1, mem}]),
			fmt.Sprintf("%.1f%%", cells[key{2, mem}]),
			fmt.Sprintf("%.1f%%", cells[key{3, mem}]))
	}
	return t.WriteASCII(w)
}

// figure10 regenerates the CPU (cDVM) overhead figure.
func figure10(_ core.Profile, w io.Writer, opts Options) error {
	t := results.NewTable(
		"Figure 10: CPU VM overheads vs ideal (paper avgs: 4K 29%, THP 13%, cDVM ~5%; xsbench 4K 84%)",
		"Workload", "4K", "THP", "cDVM")
	wls := cpu.Workloads
	rows, err := runCells(opts, opts.progressFor(len(wls)), len(wls),
		func(i int) string { return "fig10/" + wls[i].Name },
		func(_ context.Context, i int) (cpu.Result, error) {
			return cpu.Run(wls[i], cpu.Config{})
		},
		func(_ int, r cpu.Result) (string, error) {
			return fmt.Sprintf("fig10 %s: 4K %.1f%% THP %.1f%% cDVM %.1f%%",
				r.Name, 100*r.Overhead[cpu.Scheme4K], 100*r.Overhead[cpu.SchemeTHP], 100*r.Overhead[cpu.SchemeCDVM]), nil
		})
	if err != nil {
		return err
	}
	sums := map[cpu.Scheme]float64{}
	for _, r := range rows {
		t.MustAddRow(r.Name,
			results.Pct(r.Overhead[cpu.Scheme4K]),
			results.Pct(r.Overhead[cpu.SchemeTHP]),
			results.Pct(r.Overhead[cpu.SchemeCDVM]))
		for s, o := range r.Overhead {
			sums[s] += o
		}
	}
	n := float64(len(wls))
	t.MustAddRow("Average", results.Pct(sums[cpu.Scheme4K]/n), results.Pct(sums[cpu.SchemeTHP]/n), results.Pct(sums[cpu.SchemeCDVM]/n))
	return t.WriteASCII(w)
}

// table5Entry maps a paper feature to the module implementing it here.
type table5Entry struct {
	Feature  string
	PaperLOC int
	Module   string
}

// table5Entries is the paper's Table 5 (lines of Linux v4.10 changed per
// feature) with the corresponding module of this reproduction.
var table5Entries = []table5Entry{
	{Feature: "Code Segment", PaperLOC: 39, Module: "internal/osmodel/segments.go (LoadProgram)"},
	{Feature: "Heap Segment", PaperLOC: 1, Module: "internal/osmodel (Mmap identity path)"},
	{Feature: "Memory-mapped Segments", PaperLOC: 56, Module: "internal/osmodel (mmapSeg, flexible layout)"},
	{Feature: "Stack Segment", PaperLOC: 63, Module: "internal/osmodel/segments.go (eager stack)"},
	{Feature: "Page Tables", PaperLOC: 78, Module: "internal/pagetable (PE format, Compact)"},
	{Feature: "Miscellaneous", PaperLOC: 15, Module: "internal/osmodel (policy plumbing)"},
}

// table5 renders the OS-change inventory. It is static text and runs
// no cell.
func table5(_ core.Profile, w io.Writer, _ Options) error {
	t := results.NewTable(
		"Table 5: paper's Linux v4.10 changes and this reproduction's analogs",
		"Affected Feature", "Paper LOC", "Module here")
	total := 0
	for _, e := range table5Entries {
		t.MustAddRow(e.Feature, fmt.Sprintf("%d", e.PaperLOC), e.Module)
		total += e.PaperLOC
	}
	t.MustAddRow("Total", fmt.Sprintf("%d", total), "")
	return t.WriteASCII(w)
}

// ablationCell is one configuration of the design studies: the table it
// renders into (0, 1, 2 for Ablations A, B, C), its checkpoint key
// under "ablations/", its progress label, the mode it runs, how it
// changes the profile's machine, and its row's leading columns.
type ablationCell struct {
	table      int
	key, label string
	mode       core.Mode
	set        func(cfg *core.SystemConfig)
	row        []string
}

// ablationCells lists the design studies' cells in rendering order,
// after which Ablations runs its one Ideal reference cell.
func ablationCells() []ablationCell {
	var cells []ablationCell
	// A: PE fan-out sweep.
	for _, f := range []int{4, 8, 16, 32, 64} {
		cells = append(cells, ablationCell{0, fmt.Sprintf("pe-fields/%d", f), fmt.Sprintf("pe-fields %d", f), core.ModeDVMPE,
			func(cfg *core.SystemConfig) { cfg.PEFields = f }, []string{fmt.Sprintf("%d", f)}})
	}
	// B: AVC size sweep, down into the degradation region. The paper's
	// 1 KB AVC is generously sized once PEs shrink the table; only a
	// few-line cache starts missing. Tiny capacities use a direct-mapped
	// geometry (a 64 B cache cannot be 4-way).
	for _, capBytes := range []int{64, 128, 256, 1024, 4096} {
		cells = append(cells, ablationCell{1, fmt.Sprintf("avc/%d", capBytes), fmt.Sprintf("avc %dB", capBytes), core.ModeDVMPE,
			func(cfg *core.SystemConfig) {
				cfg.AVC.CapacityBytes = capBytes
				cfg.AVC.MinLevel = 1
				if capBytes < 256 {
					cfg.AVC.Ways = 1
				}
			}, []string{fmt.Sprintf("%d", capBytes)}})
	}
	// C: leaf-line caching toggle, on the *conventional* 4K
	// configuration too: the paper's PWCs refuse to cache L1 PTE lines
	// "to avoid polluting the PWC". With a GB-scale 4 KB table, letting
	// leaves in displaces the hot upper-level lines; with a PE table the
	// same policy is what makes the AVC work. Both sides of the
	// argument, measured.
	for _, x := range []struct {
		mode     core.Mode
		minLevel int
		label    string
	}{
		{core.ModeConv4K, 2, "excluded (stock PWC)"},
		{core.ModeConv4K, 1, "cached (polluted PWC)"},
		{core.ModeDVMPE, 2, "excluded (PWC-style)"},
		{core.ModeDVMPE, 1, "cached (AVC)"},
	} {
		cells = append(cells, ablationCell{2, fmt.Sprintf("leaf/%v/%d", x.mode, x.minLevel),
			fmt.Sprintf("leaf-caching %v minlevel %d", x.mode, x.minLevel), x.mode,
			func(cfg *core.SystemConfig) {
				if x.mode == core.ModeConv4K {
					cfg.PWC = mmuPTECacheConfig(x.minLevel)
				} else {
					cfg.AVC = mmuPTECacheConfig(x.minLevel)
				}
			}, []string{x.mode.String(), x.label}})
	}
	return cells
}

// ablations renders the design-choice studies DESIGN.md calls out: PE
// fan-out sweep, AVC size sweep and AVC-caches-L1 toggle, on one
// representative workload. The reference Ideal run is one cell; the
// studies' cells then fan out on the worker pool together.
func ablations(prof core.Profile, w io.Writer, opts Options) error {
	cells := ablationCells()
	progress := opts.progressFor(1 + len(cells))
	// The workload is prepared once, by the first cell that computes, so
	// a cancelled or fully restored run generates no graph.
	prepare := sync.OnceValues(func() (*core.Prepared, error) {
		d, err := graph.DatasetByName("Wiki")
		if err != nil {
			return nil, err
		}
		return opts.prepare(core.Workload{Algorithm: "PageRank", Dataset: d, Scale: prof.Scale, PageRankIters: prof.PageRankIters, Seed: 42})
	})
	run := func(mode core.Mode, cfg core.SystemConfig) (core.RunResult, error) {
		p, err := prepare()
		if err != nil {
			return core.RunResult{}, err
		}
		return p.Run(mode, cfg)
	}
	ideal, err := runCells(opts, progress, 1,
		func(int) string { return "ablations/ideal" },
		func(context.Context, int) (core.RunResult, error) { return run(core.ModeIdeal, opts.system(prof)) },
		func(_ int, r core.RunResult) (string, error) {
			return fmt.Sprintf("ablation ideal reference: %d cycles", r.Stats.Cycles), opts.collect(r)
		})
	if err != nil {
		return err
	}
	norm := func(r core.RunResult) float64 {
		return float64(r.Stats.Cycles) / float64(ideal[0].Stats.Cycles)
	}
	rs, err := runCells(opts, progress, len(cells),
		func(i int) string { return "ablations/" + cells[i].key },
		func(_ context.Context, i int) (core.RunResult, error) {
			cfg := opts.system(prof)
			cells[i].set(&cfg)
			return run(cells[i].mode, cfg)
		},
		func(i int, r core.RunResult) (string, error) {
			return fmt.Sprintf("ablation %s: %.3fx", cells[i].label, norm(r)), opts.collect(r)
		})
	if err != nil {
		return err
	}
	tables := []*results.Table{
		results.NewTable(
			fmt.Sprintf("Ablation A: PE fan-out (PageRank/Wiki, profile %s, DVM-PE)", prof.Name),
			"PE fields", "Normalized time", "AVC hit rate", "Page table"),
		results.NewTable(
			fmt.Sprintf("Ablation B: AVC capacity (PageRank/Wiki, profile %s, DVM-PE, direct-mapped below 256 B)", prof.Name),
			"AVC bytes", "Normalized time", "AVC hit rate"),
		results.NewTable(
			fmt.Sprintf("Ablation C: caching leaf PTE lines in the 1 KB walker cache (PageRank/Wiki, profile %s)", prof.Name),
			"Mode", "Leaf lines", "Normalized time", "Walker-cache hit rate"),
	}
	for i, r := range rs {
		c := cells[i]
		row := append(c.row, results.F(norm(r), 3), results.F(r.StructHitRate, 4))
		if c.table == 0 {
			// The PE fan-out changes the table itself.
			row = append(row, results.KB(r.PageTableBytes))
		}
		tables[c.table].MustAddRow(row...)
	}
	for i, t := range tables {
		if i > 0 {
			if _, err := io.WriteString(w, "\n"); err != nil {
				return err
			}
		}
		if err := t.WriteASCII(w); err != nil {
			return err
		}
	}
	return nil
}

// virtSchemes declares the Virtualization cell matrix.
var virtSchemes = []struct {
	scheme      virt.Scheme
	guest, host string
}{
	{virt.SchemeNested2D, "4K paging", "4K paging"},
	{virt.SchemeGuestDVM, "DVM (gVA==gPA)", "4K paging"},
	{virt.SchemeHostDVM, "4K paging", "DVM (gPA==sPA)"},
	{virt.SchemeFullDVM, "DVM", "none (gVA==sPA)"},
}

// virtualization renders the Section 5 extension: per-scheme translation
// costs under nested virtualization, from conventional two-dimensional
// walks down to full DVM (gVA==gPA==sPA).
func virtualization(_ core.Profile, w io.Writer, opts Options) error {
	t := results.NewTable(
		"Extension (paper §5): virtualized DVM — nested translation cost per access (64 MB guest heap, uniform random)",
		"Scheme", "Guest dim", "Nested dim", "Cold walk refs", "Avg refs/access", "Avg cycles/access", "TLB miss")
	rows := virtSchemes
	res, err := runCells(opts, opts.progressFor(len(rows)), len(rows),
		func(i int) string { return "virt/" + rows[i].scheme.String() },
		func(_ context.Context, i int) (virt.Result, error) {
			return virt.Measure(rows[i].scheme, virt.Config{}, 200_000, 7)
		},
		func(i int, r virt.Result) (string, error) {
			return fmt.Sprintf("virt %v: %.2f refs/access %.1f cy", rows[i].scheme, r.AvgMemRefs, r.AvgCycles), nil
		})
	if err != nil {
		return err
	}
	for i, row := range rows {
		r := res[i]
		t.MustAddRow(row.scheme.String(), row.guest, row.host,
			fmt.Sprintf("%d", r.ColdWalkRefs),
			results.F(r.AvgMemRefs, 3),
			results.F(r.AvgCycles, 1),
			results.Pct(r.TLBMissRate))
	}
	return t.WriteASCII(w)
}

// mmuPTECacheConfig returns the paper's 1 KB 4-way walker-cache geometry
// with the given minimum cacheable level.
func mmuPTECacheConfig(minLevel int) mmu.PTECacheConfig {
	return mmu.PTECacheConfig{CapacityBytes: 1 << 10, BlockBytes: 64, Ways: 4, MinLevel: minLevel}
}
