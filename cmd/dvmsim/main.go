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
	metricsPath := flag.String("metrics", "", "write the merged metrics-registry snapshot as JSON to this file")
	tracePath := flag.String("trace", "", "write a JSONL event trace to this file (see -trace-mask, -trace-cap)")
	traceMask := flag.String("trace-mask", "all", "comma-separated components to trace: iommu,tlb,pwc,avc,bmcache,bitmap,engine,chaos,block or 'all'")
	traceCap := flag.Int("trace-cap", 0, "event ring capacity (0 = default 65536; older events are overwritten)")
	httpAddr := flag.String("http", "", "serve the live observability surface (/metrics, /progress, /debug/pprof/) on this address (e.g. localhost:6060)")
	spansPath := flag.String("spans", "", "write phase spans as Chrome trace-event JSON to this file (load in ui.perfetto.dev)")
	chaosRate := flag.Float64("chaos-rate", 0, "fault-injection probability per injection site (0 disables; results are not paper artifacts)")
	chaosSeed := flag.Int64("chaos-seed", 1, "fault-injection PRNG seed (fixed seed = deterministic fault schedule)")
	flag.Parse()

	lg := obs.NewLogger(os.Stderr, "dvmsim", *quiet)
	coll := &obs.Collector{}
	board := &runner.ProgressBoard{}
	var httpSrv *obs.Server
	if *httpAddr != "" {
		var err error
		httpSrv, err = obs.StartHTTP(*httpAddr, lg, obs.HTTPOptions{
			Metrics:  coll.Snapshot,
			Volatile: coll.VolatileSnapshot,
			Progress: board.Probe(),
		})
		if err != nil {
			lg.Exitf(2, "%v", err)
		}
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
	if chaosCfg.Enabled() {
		cfg.Chaos = chaosCfg
		lg.Statusf("chaos armed: seed %d rate %g (outputs are not paper artifacts)", *chaosSeed, *chaosRate)
	}
	var tracer *obs.Tracer
	if *tracePath != "" {
		mask, err := obs.ParseMask(*traceMask)
		if err != nil {
			lg.Exitf(2, "%v", err)
		}
		tracer = obs.NewTracer(*traceCap, mask)
		cfg.Tracer = tracer
	}
	var spans *obs.SpanRecorder
	if *spansPath != "" {
		spans = obs.NewSpanRecorder()
		cfg.Spans = spans
	}
	// Ctrl-C cancels the mode sweep cleanly; the partial metrics
	// snapshot is still flushed below before exiting 130.
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
			if tracer != nil {
				coll.Inc("trace.dropped", tracer.Dropped())
			}
			if *metricsPath != "" {
				if werr := writeSnapshot(*metricsPath, coll); werr == nil {
					lg.Statusf("partial metrics written to %s", *metricsPath)
				}
			}
			if spans != nil {
				if werr := writeSpans(*spansPath, spans); werr == nil {
					lg.Statusf("partial spans written to %s", *spansPath)
				}
			}
			lg.Statusf("interrupted")
			// Drain the -http listener so an in-flight scrape finishes
			// instead of seeing a connection reset.
			httpSrv.Shutdown(2 * time.Second)
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

	if tracer != nil {
		// The final drop count is folded in only at flush time: the
		// tracer is shared across mode runs, so a mid-sweep reading
		// would depend on completion order.
		coll.Inc("trace.dropped", tracer.Dropped())
	}
	if *metricsPath != "" {
		if err := writeSnapshot(*metricsPath, coll); err != nil {
			lg.Exitf(1, "%v", err)
		}
		lg.Statusf("metrics written to %s", *metricsPath)
	}
	if tracer != nil {
		f, err := os.Create(*tracePath)
		if err != nil {
			lg.Exitf(1, "%v", err)
		}
		if err := tracer.WriteJSONL(f); err != nil {
			lg.Exitf(1, "%v", err)
		}
		if err := f.Close(); err != nil {
			lg.Exitf(1, "%v", err)
		}
		lg.Statusf("trace written to %s (%d events emitted, %d retained)",
			*tracePath, tracer.Total(), len(tracer.Events()))
	}
	if spans != nil {
		if err := writeSpans(*spansPath, spans); err != nil {
			lg.Exitf(1, "%v", err)
		}
		lg.Statusf("spans written to %s (%d recorded, %d dropped); load in ui.perfetto.dev",
			*spansPath, len(spans.Spans()), spans.Dropped())
	}
	httpSrv.Shutdown(2 * time.Second)
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

func writeSnapshot(path string, coll *obs.Collector) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := coll.Snapshot().WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeSpans(path string, sp *obs.SpanRecorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := sp.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
