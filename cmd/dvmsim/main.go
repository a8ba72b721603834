// Command dvmsim runs a single accelerator experiment cell: one algorithm
// on one dataset under one (or every) memory-management mode, printing
// cycles, miss rates and MMU energy.
//
// Usage:
//
//	dvmsim -alg PageRank -dataset Wiki [-mode DVM-PE+] [-profile small] [-seed 42] [-j N]
//	       [-chaos-rate p -chaos-seed N]
//	       [-metrics file] [-trace file] [-trace-mask comps]
//	       [-http addr] [-spans file] [-q]
//
// Omitting -mode runs all seven paper configurations and prints a
// comparison; -mode accepts a comma-separated list of registered mode
// names or aliases (case-insensitive), plus the keywords "all" (paper
// set) and "extended" (paper set + SPARTA + VBI).
// -j bounds how many of those runs execute concurrently (default: one per
// CPU; the printed table is identical at any -j). -metrics writes the
// merged registry snapshot (counters and histograms) of all runs as JSON;
// -trace writes a JSONL event trace of the translation path; -spans
// writes phase spans as Chrome trace-event JSON (ui.perfetto.dev); -http
// serves the live surface (/metrics, /progress, /debug/pprof/).
// -chaos-rate (a probability in [0, 1]) arms seeded fault injection.
// Ctrl-C (or SIGTERM) flushes the partial exports and exits 130.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/dvm-sim/dvm/internal/chaos"
	"github.com/dvm-sim/dvm/internal/core"
	"github.com/dvm-sim/dvm/internal/graph"
	"github.com/dvm-sim/dvm/internal/obs"
	"github.com/dvm-sim/dvm/internal/results"
	"github.com/dvm-sim/dvm/internal/runner"
)

func main() {
	alg := flag.String("alg", "PageRank", "algorithm: BFS|PageRank|SSSP|CF")
	dataset := flag.String("dataset", "Wiki", "dataset: "+strings.Join(graph.DatasetNames(), "|"))
	modeName := flag.String("mode", "", "comma-separated mode list (default: the seven paper modes); names/aliases are case-insensitive (e.g. 4K|DVM-BM|pe+|SPARTA|VBI), plus 'all' (paper set) and 'extended' (paper + SPARTA + VBI)")
	profileName := flag.String("profile", "small", "experiment profile: "+strings.Join(core.ProfileNames(), "|"))
	seed := flag.Int64("seed", 42, "graph generation seed")
	jobs := flag.Int("j", 0, "max concurrent mode runs (0 = one per CPU, 1 = sequential)")
	quiet := flag.Bool("q", false, "suppress status output")
	outs := obs.AddOutputFlags(flag.CommandLine)
	chaosRate := flag.Float64("chaos-rate", 0, "fault-injection probability per injection site (0 disables; results are not paper artifacts)")
	chaosSeed := flag.Int64("chaos-seed", 1, "fault-injection PRNG seed (fixed seed = deterministic fault schedule)")
	flag.Parse()

	lg := obs.NewLogger(os.Stderr, "dvmsim", *quiet)
	coll := &obs.Collector{}
	board := &runner.ProgressBoard{}
	if err := outs.Start(lg, coll, board.Probe()); err != nil {
		lg.Exitf(2, "%v", err)
	}

	prof, err := core.ProfileByName(*profileName)
	if err != nil {
		lg.Exitf(2, "%v", err)
	}
	d, err := graph.DatasetByName(*dataset)
	if err != nil {
		lg.Exitf(2, "%v", err)
	}
	chaosCfg := &chaos.Config{Seed: *chaosSeed, Rate: *chaosRate}
	if err := chaosCfg.Validate(); err != nil {
		lg.Exitf(2, "%v", err)
	}
	w := core.Workload{
		Algorithm:     *alg,
		Dataset:       d,
		Scale:         prof.Scale,
		PageRankIters: prof.PageRankIters,
		Seed:          *seed,
	}
	workers := runner.BudgetFor(*jobs)
	p, err := core.PrepareB(w, workers)
	if err != nil {
		lg.Exitf(1, "%v", err)
	}
	fmt.Printf("%s on %s: %d vertices, %d edges (scale %.4g)\n\n", *alg, *dataset, p.G.V, p.G.E(), prof.Scale)

	modes, err := parseModes(*modeName)
	if err != nil {
		lg.Exitf(2, "%v", err)
	}

	cfg := prof.SystemConfig()
	cfg.Workers = workers
	cfg.Tracer = outs.Tracer
	cfg.Spans = outs.Spans
	if chaosCfg.Enabled() {
		cfg.Chaos = chaosCfg
		lg.Statusf("chaos armed: seed %d rate %g (outputs are not paper artifacts)", *chaosSeed, *chaosRate)
	}
	// Ctrl-C cancels the mode sweep cleanly; the partial exports are
	// still flushed below before exiting 130.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	progress := runner.NewProgress(len(modes), runner.Logf(lg.Statusf))
	board.Set(progress)
	// Results are byte-identical at any -j. The per-mode bookkeeping runs
	// after the sweep in mode order so the merged metrics snapshot is
	// deterministic.
	byMode, err := p.RunModesCtx(ctx, modes, cfg, *jobs)
	if err == nil {
		for _, m := range modes {
			r := byMode[m]
			if err = core.CrossCheck(r); err != nil {
				break
			}
			coll.Add(r.Metrics)
			// Host wall time is nondeterministic: volatile side only,
			// served by /metrics, never part of the -metrics export.
			coll.Observe("runner.cell.wall.us", uint64(r.Wall.Microseconds()))
			progress.Done("%v: %d cycles in %v", m, r.Stats.Cycles, r.Wall.Round(time.Millisecond))
		}
	}
	if err != nil {
		if ctx.Err() != nil {
			lg.Statusf("interrupted")
			if err := outs.Flush(lg, coll, true); err != nil {
				lg.Errorf("%v", err)
			}
			os.Exit(130)
		}
		lg.Exitf(1, "%v", err)
	}
	t := results.NewTable("", "Mode", "Cycles", "TLB miss", "Struct hit", "Walk refs", "Squashes", "MMU energy (pJ)")
	for _, m := range modes {
		r := byMode[m]
		t.MustAddRow(m.String(),
			fmt.Sprintf("%d", r.Stats.Cycles),
			results.Pct(r.TLBMissRate),
			results.Pct(r.StructHitRate),
			fmt.Sprintf("%d", r.IOMMU.WalkMemRefs),
			fmt.Sprintf("%d", r.IOMMU.SquashedPreloads),
			results.F(r.Energy.Total, 0))
	}
	if err := t.WriteASCII(os.Stdout); err != nil {
		lg.Exitf(1, "%v", err)
	}

	if err := outs.Flush(lg, coll, false); err != nil {
		lg.Exitf(1, "%v", err)
	}
}

// parseModes resolves the -mode flag through the backend registry: a
// comma-separated list of registered names/aliases (case-insensitive),
// or the keywords "all" (the seven paper modes) and "extended" (paper
// set plus the registered extras). Empty selects the paper set. Unknown
// names error, listing the registered vocabulary.
func parseModes(spec string) ([]core.Mode, error) {
	if spec == "" {
		return core.AllModes, nil
	}
	var modes []core.Mode
	seen := map[core.Mode]bool{}
	add := func(ms ...core.Mode) {
		for _, m := range ms {
			if !seen[m] {
				seen[m] = true
				modes = append(modes, m)
			}
		}
	}
	for _, name := range strings.Split(spec, ",") {
		switch strings.ToLower(strings.TrimSpace(name)) {
		case "all":
			add(core.AllModes...)
		case "extended":
			add(core.RegisteredModes()...)
		default:
			m, err := core.ModeByName(name)
			if err != nil {
				return nil, err
			}
			add(m)
		}
	}
	return modes, nil
}
