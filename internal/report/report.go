// Package report regenerates every table and figure of the paper's
// evaluation as formatted text, one function per artifact. The
// reproduction commands (cmd/dvmrepro and the standalone tools) and the
// repository's EXPERIMENTS.md are produced through this package.
//
// Each artifact is a matrix of independent simulations, so the generators
// fan their cells out on internal/runner's worker pool: Options.Jobs bounds
// the concurrency, progress lines are emitted as cells complete, and table
// rows are always rendered in cell-index order, making the rendered output
// byte-identical at every Jobs value.
package report

import (
	"context"
	"fmt"
	"io"
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

// Progress receives one line per completed step; nil disables reporting.
// The generators call it from worker goroutines, so callers passing a sink
// that is not inherently safe get it wrapped via Synchronized.
type Progress func(format string, args ...interface{})

func (p Progress) log(format string, args ...interface{}) {
	if p != nil {
		p(format, args...)
	}
}

// Synchronized returns a Progress that serializes calls behind a mutex, so
// it is safe to invoke from multiple goroutines; nil stays nil.
func (p Progress) Synchronized() Progress {
	return Progress(runner.Synchronized(runner.Logf(p)))
}

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
	Progress Progress
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
	// Shard, when Count > 0, restricts the generators to the cells one
	// fleet member owns: each artifact's cells are indexed in its fixed
	// declaration order, and cell i runs iff i % Count == Index. Skipped
	// cells bypass the checkpoint and every side effect (metrics,
	// progress, cell counters), so a shard's checkpoint holds exactly its
	// own cells; rendered tables are suppressed by the caller (dvmrepro
	// writes shard output to io.Discard) because partial-matrix tables
	// would be garbage. Merge the N shard checkpoints with
	// core.MergeCheckpoints and re-render with -resume: restored cells
	// replay the same collection path, so tables and -metrics come out
	// byte-identical to a single-box run.
	Shard Shard
	// CellTimeout, when positive, puts every experiment cell under a
	// watchdog: a cell running longer is abandoned and surfaces as a
	// *runner.CellError wrapping context.DeadlineExceeded. Zero (the
	// historical default) lets cells run unbounded. The service tier
	// sets it so one wedged simulation cannot hang a daemon job forever.
	CellTimeout time.Duration
}

// Shard identifies one member of a distributed sweep fleet: cell i of
// every artifact belongs to the member with i % Count == Index. The
// zero value (Count 0) disables sharding.
type Shard struct {
	Index, Count int
}

// owns reports whether this run computes cell i.
func (o Options) owns(i int) bool {
	return o.Shard.Count <= 0 || i%o.Shard.Count == o.Shard.Index
}

// ownedCount returns how many of total cells this run computes (the
// progress denominator).
func (o Options) ownedCount(total int) int {
	if o.Shard.Count <= 0 {
		return total
	}
	n := total / o.Shard.Count
	if o.Shard.Index < total%o.Shard.Count {
		n++
	}
	return n
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

// checkpointed serves one cell from the checkpoint when a previous run
// already completed it, and computes-then-records it otherwise. With no
// checkpoint configured it degrades to a plain compute. Callers run the
// per-cell side effects (metrics fold, progress, cell counters) after
// this returns, so restored and computed cells contribute identically
// to every artifact.
func checkpointed[T any](o Options, key string, compute func() (T, error)) (T, error) {
	var v T
	ok, err := o.Checkpoint.Lookup(key, &v)
	if err != nil {
		return v, err
	}
	if ok {
		return v, nil
	}
	if v, err = compute(); err != nil {
		return v, err
	}
	if err := o.Checkpoint.Record(key, v); err != nil {
		return v, fmt.Errorf("report: checkpointing %s: %w", key, err)
	}
	return v, nil
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

// progressFor returns a per-cell completion logger over total cells,
// adding the live count/percent/ETA prefix; the returned Progress is
// goroutine-safe and non-nil only when reporting is enabled.
func (o Options) progressFor(total int) Progress {
	logf := runner.Logf(o.Progress)
	if logf == nil && o.Board != nil {
		// The /progress endpoint needs live accounting even with line
		// reporting off; a no-op sink keeps NewProgress's nil contract.
		logf = func(string, ...interface{}) {}
	}
	p := runner.NewProgress(total, logf)
	o.Board.Set(p)
	if p == nil {
		return nil
	}
	return p.Done
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
// runner.cells.done is counted separately, once per runner.Map cell.
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

// cellDone counts one completed runner cell into the collector.
func (o Options) cellDone() { o.Metrics.Inc("runner.cells.done", 1) }

// Figure2 regenerates the TLB miss-rate figure: one row per workload/input,
// 4 KB vs 2 MB pages.
func Figure2(prof core.Profile, w io.Writer, opts Options) error {
	t := results.NewTable(
		fmt.Sprintf("Figure 2: TLB miss rates (%d-entry FA TLB, profile %s; paper: 128-entry, ~21%% avg at 4K, 2M within 1%%)",
			prof.TLBEntries, prof.Name),
		"Workload", "Input", "4K miss", "2M miss", "4K lookups", "2M lookups")
	wls := prof.Workloads()
	progress := opts.progressFor(opts.ownedCount(len(wls)))
	rows, err := mapCells(opts, len(wls), func(_ context.Context, i int) (core.Figure2Row, error) {
		if !opts.owns(i) {
			return core.Figure2Row{}, nil
		}
		row, err := checkpointed(opts, "fig2/"+wls[i].Algorithm+"/"+wls[i].Dataset.Name, func() (core.Figure2Row, error) {
			p, err := opts.prepare(wls[i])
			if err != nil {
				return core.Figure2Row{}, err
			}
			return core.Figure2(p, opts.system(prof))
		})
		if err != nil {
			return row, err
		}
		opts.Metrics.Add(obs.Merge(row.Metrics4K, row.Metrics2M))
		opts.cellDone()
		progress.log("fig2 %s/%s: 4K %.1f%% 2M %.1f%%", row.Algorithm, row.Dataset, 100*row.MissRate4K, 100*row.MissRate2M)
		return row, nil
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

// Table1 regenerates the page-table-size table for the PageRank and CF
// heaps.
func Table1(prof core.Profile, w io.Writer, opts Options) error {
	t := results.NewTable(
		fmt.Sprintf("Table 1: page table sizes (profile %s; paper: PEs cut tables from MBs to ~48-68 KB, L1 PTEs ~98%%)", prof.Name),
		"Input", "Page tables", "% L1 PTEs", "With PEs")
	var wls []core.Workload
	for _, wl := range prof.Workloads() {
		if wl.Algorithm == "PageRank" || wl.Algorithm == "CF" {
			wls = append(wls, wl)
		}
	}
	progress := opts.progressFor(opts.ownedCount(len(wls)))
	rows, err := mapCells(opts, len(wls), func(_ context.Context, i int) (core.Table1Row, error) {
		if !opts.owns(i) {
			return core.Table1Row{}, nil
		}
		row, err := checkpointed(opts, "table1/"+wls[i].Dataset.Name, func() (core.Table1Row, error) {
			p, err := opts.prepare(wls[i])
			if err != nil {
				return core.Table1Row{}, err
			}
			return core.Table1(p, prof.SystemConfig())
		})
		if err != nil {
			return row, err
		}
		opts.cellDone()
		progress.log("table1 %s: std %s -> PE %s", row.Input, results.KB(row.StdBytes), results.KB(row.PEBytes))
		return row, nil
	})
	if err != nil {
		return err
	}
	for _, row := range rows {
		t.MustAddRow(row.Input, results.KB(row.StdBytes), results.F(row.L1Fraction, 3), results.KB(row.PEBytes))
	}
	return t.WriteASCII(w)
}

// Table3 prints the dataset registry (paper-scale sizes plus the sizes
// generated at the profile's scale), reading each dataset's graph from
// the shared cache when one is configured.
func Table3(prof core.Profile, w io.Writer, opts Options) error {
	t := results.NewTable(
		fmt.Sprintf("Table 3: graph datasets (paper scale, generated at scale %.4g for profile %s)", prof.Scale, prof.Name),
		"Graph", "Vertices", "Edges", "Heap (paper)", "V (scaled)", "E (scaled)")
	progress := opts.progressFor(opts.ownedCount(len(graph.Datasets)))
	// Exported fields so the cell round-trips through checkpoint JSON.
	type scaled struct{ V, E int }
	rows, err := mapCells(opts, len(graph.Datasets), func(_ context.Context, i int) (scaled, error) {
		if !opts.owns(i) {
			return scaled{}, nil
		}
		d := graph.Datasets[i]
		row, err := checkpointed(opts, "table3/"+d.Name, func() (scaled, error) {
			g, err := opts.Prepared.Graph(d, prof.Scale, 42)
			if err != nil {
				return scaled{}, err
			}
			return scaled{g.V, g.E()}, nil
		})
		if err != nil {
			return scaled{}, err
		}
		opts.cellDone()
		progress.log("table3 %s: V=%d E=%d", d.Name, row.V, row.E)
		return row, nil
	})
	if err != nil {
		return err
	}
	for i, d := range graph.Datasets {
		t.MustAddRow(d.Name, fmt.Sprintf("%d", d.Vertices), fmt.Sprintf("%d", d.Edges),
			results.Bytes(d.HeapBytes), fmt.Sprintf("%d", rows[i].V), fmt.Sprintf("%d", rows[i].E))
	}
	return t.WriteASCII(w)
}

// Figure8And9 runs the full mode matrix once and renders both the
// normalized-execution-time figure (8) and the normalized-energy figure
// (9).
func Figure8And9(prof core.Profile, w io.Writer, opts Options) error {
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
	progress := opts.progressFor(opts.ownedCount(len(wls)))
	// Exported fields so the cell round-trips through checkpoint JSON.
	type pair struct {
		Cell core.Figure8Cell
		Fig9 core.Figure9Cell
	}
	// Parallelism is across cells; each cell runs its modes sequentially
	// so a full sweep never has more than Jobs runs in flight.
	cells, err := mapCells(opts, len(wls), func(ctx context.Context, i int) (pair, error) {
		if !opts.owns(i) {
			return pair{}, nil
		}
		pr, err := checkpointed(opts, "fig8/"+wls[i].Algorithm+"/"+wls[i].Dataset.Name, func() (pair, error) {
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
		})
		if err != nil {
			return pair{}, err
		}
		cell := pr.Cell
		for _, m := range modes {
			if err := opts.collect(cell.Results[m]); err != nil {
				return pair{}, fmt.Errorf("fig8 %s/%s %v: %w", cell.Algorithm, cell.Dataset, m, err)
			}
		}
		opts.cellDone()
		progress.log("fig8 %s/%s: 4K %.2fx PE %.3fx PE+ %.3fx BM %.2fx",
			cell.Algorithm, cell.Dataset, cell.Normalized[core.ModeConv4K],
			cell.Normalized[core.ModeDVMPE], cell.Normalized[core.ModeDVMPEPlus], cell.Normalized[core.ModeDVMBM])
		return pr, nil
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

// Table4 regenerates the identity-mapping fragmentation table.
func Table4(w io.Writer, opts Options) error {
	t := results.NewTable(
		"Table 4: % of system memory allocated with identity mapping intact (paper: 95-97%)",
		"System Memory", "Expt 1", "Expt 2", "Expt 3")
	type cell struct {
		exp shbench.Experiment
		mem uint64
	}
	var cellsIn []cell
	for _, exp := range shbench.Experiments {
		for _, mem := range shbench.MemorySizes {
			cellsIn = append(cellsIn, cell{exp, mem})
		}
	}
	progress := opts.progressFor(opts.ownedCount(len(cellsIn)))
	pcts, err := mapCells(opts, len(cellsIn), func(_ context.Context, i int) (float64, error) {
		if !opts.owns(i) {
			return 0, nil
		}
		c := cellsIn[i]
		pct, err := checkpointed(opts, fmt.Sprintf("table4/%d/%d", c.exp.ID, c.mem), func() (float64, error) {
			r, err := shbench.Run(c.exp, c.mem)
			if err != nil {
				return 0, err
			}
			return r.Percent, nil
		})
		if err != nil {
			return 0, err
		}
		opts.cellDone()
		progress.log("table4 expt %d %s: %.1f%%", c.exp.ID, results.Bytes(c.mem), pct)
		return pct, nil
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

// Figure10 regenerates the CPU (cDVM) overhead figure.
func Figure10(w io.Writer, opts Options) error {
	t := results.NewTable(
		"Figure 10: CPU VM overheads vs ideal (paper avgs: 4K 29%, THP 13%, cDVM ~5%; xsbench 4K 84%)",
		"Workload", "4K", "THP", "cDVM")
	progress := opts.progressFor(opts.ownedCount(len(cpu.Workloads)))
	rows, err := mapCells(opts, len(cpu.Workloads), func(_ context.Context, i int) (cpu.Result, error) {
		if !opts.owns(i) {
			return cpu.Result{}, nil
		}
		r, err := checkpointed(opts, "fig10/"+cpu.Workloads[i].Name, func() (cpu.Result, error) {
			return cpu.Run(cpu.Workloads[i], cpu.Config{})
		})
		if err != nil {
			return cpu.Result{}, err
		}
		opts.cellDone()
		progress.log("fig10 %s: 4K %.1f%% THP %.1f%% cDVM %.1f%%",
			r.Name, 100*r.Overhead[cpu.Scheme4K], 100*r.Overhead[cpu.SchemeTHP], 100*r.Overhead[cpu.SchemeCDVM])
		return r, nil
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
	n := float64(len(cpu.Workloads))
	t.MustAddRow("Average", results.Pct(sums[cpu.Scheme4K]/n), results.Pct(sums[cpu.SchemeTHP]/n), results.Pct(sums[cpu.SchemeCDVM]/n))
	return t.WriteASCII(w)
}

// Table5Entry maps a paper feature to the module implementing it here.
type Table5Entry struct {
	Feature  string
	PaperLOC int
	Module   string
}

// Table5Entries is the paper's Table 5 (lines of Linux v4.10 changed per
// feature) with the corresponding module of this reproduction.
var Table5Entries = []Table5Entry{
	{Feature: "Code Segment", PaperLOC: 39, Module: "internal/osmodel/segments.go (LoadProgram)"},
	{Feature: "Heap Segment", PaperLOC: 1, Module: "internal/osmodel (Mmap identity path)"},
	{Feature: "Memory-mapped Segments", PaperLOC: 56, Module: "internal/osmodel (mmapSeg, flexible layout)"},
	{Feature: "Stack Segment", PaperLOC: 63, Module: "internal/osmodel/segments.go (eager stack)"},
	{Feature: "Page Tables", PaperLOC: 78, Module: "internal/pagetable (PE format, Compact)"},
	{Feature: "Miscellaneous", PaperLOC: 15, Module: "internal/osmodel (policy plumbing)"},
}

// Table5 renders the OS-change inventory.
func Table5(w io.Writer) error {
	t := results.NewTable(
		"Table 5: paper's Linux v4.10 changes and this reproduction's analogs",
		"Affected Feature", "Paper LOC", "Module here")
	total := 0
	for _, e := range Table5Entries {
		t.MustAddRow(e.Feature, fmt.Sprintf("%d", e.PaperLOC), e.Module)
		total += e.PaperLOC
	}
	t.MustAddRow("Total", fmt.Sprintf("%d", total), "")
	return t.WriteASCII(w)
}

// Ablations renders the design-choice studies DESIGN.md calls out: PE
// fan-out sweep, AVC size sweep and AVC-caches-L1 toggle, on one
// representative workload. The reference Ideal run is measured once; each
// sweep then fans its configurations out on the worker pool.
func Ablations(prof core.Profile, w io.Writer, opts Options) error {
	d, err := graph.DatasetByName("Wiki")
	if err != nil {
		return err
	}
	wl := core.Workload{Algorithm: "PageRank", Dataset: d, Scale: prof.Scale, PageRankIters: prof.PageRankIters, Seed: 42}
	p, err := opts.prepare(wl)
	if err != nil {
		return err
	}
	// The three sweeps' configurations are package-level so CellCount
	// can report the cell total before any cell runs.
	fanouts := ablationFanouts
	capacities := ablationCapacities
	toggles := ablationToggles
	// Ablation cells get global indexes for sharding: ideal is cell 0,
	// fan-outs 1..len(fanouts), capacities and toggles follow in order.
	progress := opts.progressFor(opts.ownedCount(1 + len(fanouts) + len(capacities) + len(toggles)))
	var ideal core.RunResult
	if opts.owns(0) {
		var err error
		ideal, err = checkpointed(opts, "ablations/ideal", func() (core.RunResult, error) {
			return p.Run(core.ModeIdeal, opts.system(prof))
		})
		if err != nil {
			return err
		}
		if err := opts.collect(ideal); err != nil {
			return err
		}
		opts.cellDone()
		progress.log("ablation ideal reference: %d cycles", ideal.Stats.Cycles)
	}
	norm := func(r core.RunResult) float64 {
		if ideal.Stats.Cycles == 0 {
			return 0 // shard doesn't own the ideal reference; table is discarded
		}
		return float64(r.Stats.Cycles) / float64(ideal.Stats.Cycles)
	}

	// PE fan-out sweep.
	tf := results.NewTable(
		fmt.Sprintf("Ablation A: PE fan-out (PageRank/Wiki, profile %s, DVM-PE)", prof.Name),
		"PE fields", "Normalized time", "AVC hit rate", "Page table")
	fanRows, err := mapCells(opts, len(fanouts), func(_ context.Context, i int) (core.RunResult, error) {
		if !opts.owns(1 + i) {
			return core.RunResult{}, nil
		}
		r, err := checkpointed(opts, fmt.Sprintf("ablations/pe-fields/%d", fanouts[i]), func() (core.RunResult, error) {
			cfg := opts.system(prof)
			cfg.PEFields = fanouts[i]
			return p.Run(core.ModeDVMPE, cfg)
		})
		if err != nil {
			return r, err
		}
		if err := opts.collect(r); err != nil {
			return r, err
		}
		opts.cellDone()
		progress.log("ablation pe-fields %d: %.3fx", fanouts[i], norm(r))
		return r, nil
	})
	if err != nil {
		return err
	}
	for i, r := range fanRows {
		tf.MustAddRow(fmt.Sprintf("%d", fanouts[i]),
			results.F(norm(r), 3),
			results.F(r.StructHitRate, 4),
			results.KB(r.PageTableBytes))
	}
	if err := tf.WriteASCII(w); err != nil {
		return err
	}
	if _, err := io.WriteString(w, "\n"); err != nil {
		return err
	}

	// AVC size sweep, down into the degradation region. The paper's 1 KB
	// AVC is generously sized once PEs shrink the table; only a
	// few-line cache starts missing. Tiny capacities use a direct-mapped
	// geometry (a 64 B cache cannot be 4-way).
	ts := results.NewTable(
		fmt.Sprintf("Ablation B: AVC capacity (PageRank/Wiki, profile %s, DVM-PE, direct-mapped below 256 B)", prof.Name),
		"AVC bytes", "Normalized time", "AVC hit rate")
	capRows, err := mapCells(opts, len(capacities), func(_ context.Context, i int) (core.RunResult, error) {
		if !opts.owns(1 + len(fanouts) + i) {
			return core.RunResult{}, nil
		}
		capBytes := capacities[i]
		r, err := checkpointed(opts, fmt.Sprintf("ablations/avc/%d", capBytes), func() (core.RunResult, error) {
			cfg := opts.system(prof)
			cfg.AVC.CapacityBytes = capBytes
			cfg.AVC.MinLevel = 1
			if capBytes < 256 {
				cfg.AVC.Ways = 1
			}
			return p.Run(core.ModeDVMPE, cfg)
		})
		if err != nil {
			return r, err
		}
		if err := opts.collect(r); err != nil {
			return r, err
		}
		opts.cellDone()
		progress.log("ablation avc %dB: %.3fx", capBytes, norm(r))
		return r, nil
	})
	if err != nil {
		return err
	}
	for i, r := range capRows {
		ts.MustAddRow(fmt.Sprintf("%d", capacities[i]),
			results.F(norm(r), 3),
			results.F(r.StructHitRate, 4))
	}
	if err := ts.WriteASCII(w); err != nil {
		return err
	}
	if _, err := io.WriteString(w, "\n"); err != nil {
		return err
	}

	// Leaf-line caching toggle, on the *conventional* 4K configuration:
	// the paper's PWCs refuse to cache L1 PTE lines "to avoid polluting
	// the PWC". With a GB-scale 4 KB table, letting leaves in displaces
	// the hot upper-level lines; with a PE table the same policy is what
	// makes the AVC work. Both sides of the argument, measured.
	tl := results.NewTable(
		fmt.Sprintf("Ablation C: caching leaf PTE lines in the 1 KB walker cache (PageRank/Wiki, profile %s)", prof.Name),
		"Mode", "Leaf lines", "Normalized time", "Walker-cache hit rate")
	togRows, err := mapCells(opts, len(toggles), func(_ context.Context, i int) (core.RunResult, error) {
		if !opts.owns(1 + len(fanouts) + len(capacities) + i) {
			return core.RunResult{}, nil
		}
		x := toggles[i]
		r, err := checkpointed(opts, fmt.Sprintf("ablations/leaf/%v/%d", x.mode, x.minLevel), func() (core.RunResult, error) {
			cfg := opts.system(prof)
			if x.mode == core.ModeConv4K {
				cfg.PWC = mmuPTECacheConfig(x.minLevel)
			} else {
				cfg.AVC = mmuPTECacheConfig(x.minLevel)
			}
			return p.Run(x.mode, cfg)
		})
		if err != nil {
			return r, err
		}
		if err := opts.collect(r); err != nil {
			return r, err
		}
		opts.cellDone()
		progress.log("ablation leaf-caching %v minlevel %d: %.3fx", x.mode, x.minLevel, norm(r))
		return r, nil
	})
	if err != nil {
		return err
	}
	for i, r := range togRows {
		tl.MustAddRow(toggles[i].mode.String(), toggles[i].label,
			results.F(norm(r), 3),
			results.F(r.StructHitRate, 4))
	}
	return tl.WriteASCII(w)
}

// ablationFanouts, ablationCapacities and ablationToggles declare the
// Ablations cell matrix at package level (plus one reference Ideal run)
// so CellCount can size a sweep without running it.
var (
	ablationFanouts    = []int{4, 8, 16, 32, 64}
	ablationCapacities = []int{64, 128, 256, 1024, 4096}
	ablationToggles    = []struct {
		mode     core.Mode
		minLevel int
		label    string
	}{
		{core.ModeConv4K, 2, "excluded (stock PWC)"},
		{core.ModeConv4K, 1, "cached (polluted PWC)"},
		{core.ModeDVMPE, 2, "excluded (PWC-style)"},
		{core.ModeDVMPE, 1, "cached (AVC)"},
	}
)

// virtSchemes declares the Virtualization cell matrix at package level
// for the same reason.
var virtSchemes = []struct {
	scheme      virt.Scheme
	guest, host string
}{
	{virt.SchemeNested2D, "4K paging", "4K paging"},
	{virt.SchemeGuestDVM, "DVM (gVA==gPA)", "4K paging"},
	{virt.SchemeHostDVM, "4K paging", "DVM (gPA==sPA)"},
	{virt.SchemeFullDVM, "DVM", "none (gVA==sPA)"},
}

// Virtualization renders the Section 5 extension: per-scheme translation
// costs under nested virtualization, from conventional two-dimensional
// walks down to full DVM (gVA==gPA==sPA).
func Virtualization(w io.Writer, opts Options) error {
	t := results.NewTable(
		"Extension (paper §5): virtualized DVM — nested translation cost per access (64 MB guest heap, uniform random)",
		"Scheme", "Guest dim", "Nested dim", "Cold walk refs", "Avg refs/access", "Avg cycles/access", "TLB miss")
	rows := virtSchemes
	progress := opts.progressFor(opts.ownedCount(len(rows)))
	res, err := mapCells(opts, len(rows), func(_ context.Context, i int) (virt.Result, error) {
		if !opts.owns(i) {
			return virt.Result{}, nil
		}
		r, err := checkpointed(opts, "virt/"+rows[i].scheme.String(), func() (virt.Result, error) {
			return virt.Measure(rows[i].scheme, virt.Config{}, 200_000, 7)
		})
		if err != nil {
			return virt.Result{}, err
		}
		opts.cellDone()
		progress.log("virt %v: %.2f refs/access %.1f cy", rows[i].scheme, r.AvgMemRefs, r.AvgCycles)
		return r, nil
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
