// Command dvmrepro regenerates the tables and figures of "Devirtualizing
// Memory in Heterogeneous Systems" (ASPLOS'18) from the simulation in this
// repository.
//
// Usage:
//
//	dvmrepro [-profile tiny|small|medium|large|paper] [-j N] [-modes paper|extended]
//	         [-only fig2,table1,table3,fig8,fig9,table4,fig10,table5,ablations,virt]
//	         [-checkpoint file [-resume]] [-graph-cache dir]
//	         [-chaos-rate p -chaos-seed N]
//	         [-metrics file] [-trace file] [-trace-mask comps]
//	         [-http addr] [-spans file] [-q]
//
// With no -only flag every artifact is regenerated in paper order. Output
// goes to stdout; progress lines go to stderr unless -q is set. The
// evaluation matrix is embarrassingly parallel: -j bounds how many
// experiment cells run concurrently (default: one per CPU), and every
// rendered table is byte-identical at any -j (-j 1 reproduces the
// sequential sweep exactly).
//
// Resilience: -checkpoint persists every completed experiment cell to a
// JSONL file; Ctrl-C (or SIGTERM) cancels the sweep cleanly, flushes the
// checkpoint plus partial -metrics, -trace and -spans exports, and exits
// 130. Rerunning with -resume skips the finished cells and renders final
// tables byte-identical to an uninterrupted run. -graph-cache dir builds
// each (dataset, scale, seed) graph once as an on-disk CSR file and
// mmaps it read-only, so a second run shares page-cache pages instead
// of regenerating and holding a private copy.
//
// Chaos: -chaos-rate (a probability in [0, 1]) arms deterministic
// seeded fault injection (allocation failures, corrupted PTEs, truncated
// walks, bad PE permissions, memory latency spikes) in every simulation;
// -chaos-seed fixes the fault schedule (0 means 1), so two runs with the
// same seed report identical chaos.* counters and identical typed errors.
//
// Observability: -metrics writes the merged per-run registry snapshot
// (counters and latency histograms) as JSON (byte-identical at any -j —
// snapshots merge by commutative sum); -trace writes a JSONL event trace
// bounded by -trace-cap, filtered to the -trace-mask components (the
// same bytes run to run only at -j 1: concurrent cells share one event
// ring, so their events interleave by scheduling); -spans
// writes the sweep's phase spans (prepare, page-table builds, cells,
// timing replay) as Chrome trace-event JSON loadable
// in ui.perfetto.dev; -http serves the live surface — net/http/pprof
// under /debug/pprof/, the merged metrics in Prometheus text exposition
// format at /metrics, and the sweep progress as JSON at /progress.
//
// The sweep's identity (profile, -only, -modes, chaos) is a
// report.Spec: it validates the flags and names the checkpoint
// namespace, exactly as it does for a dvmserved job.
package main

import (
	"context"
	"flag"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/dvm-sim/dvm/internal/core"
	"github.com/dvm-sim/dvm/internal/obs"
	"github.com/dvm-sim/dvm/internal/report"
	"github.com/dvm-sim/dvm/internal/runner"
)

func main() {
	profileName := flag.String("profile", "small", "experiment profile: "+strings.Join(core.ProfileNames(), "|")+" (see DESIGN.md §6)")
	only := flag.String("only", "", "comma-separated subset: "+strings.Join(report.ArtifactKeys, ","))
	modesName := flag.String("modes", "paper", "mode set for the fig8/fig9 matrix: paper (the seven paper columns, the byte-stable artifact) or extended (paper + SPARTA + VBI columns)")
	jobs := flag.Int("j", 0, "max concurrent experiment cells (0 = one per CPU, 1 = sequential)")
	quiet := flag.Bool("quiet", false, "suppress progress output")
	flag.BoolVar(quiet, "q", false, "shorthand for -quiet")
	outs := obs.AddOutputFlags(flag.CommandLine)
	ckPath := flag.String("checkpoint", "", "persist completed experiment cells to this JSONL file (enables -resume)")
	resume := flag.Bool("resume", false, "with -checkpoint: skip cells a previous interrupted run completed")
	chaosRate := flag.Float64("chaos-rate", 0, "fault-injection probability per injection site (0 disables; results are not paper artifacts)")
	chaosSeed := flag.Int64("chaos-seed", 1, "fault-injection PRNG seed (fixed seed = deterministic fault schedule)")
	graphCache := flag.String("graph-cache", "", "directory for the on-disk CSR graph cache: each (dataset, scale, seed) graph is built once and mmap'd read-only thereafter")
	flag.Parse()

	lg := obs.NewLogger(os.Stderr, "dvmrepro", *quiet)

	coll := &obs.Collector{}
	board := &runner.ProgressBoard{}
	if err := outs.Start(lg, coll, board.Probe()); err != nil {
		lg.Exitf(2, "%v", err)
	}

	spec := report.Spec{Profile: *profileName, Modes: *modesName, ChaosRate: *chaosRate, ChaosSeed: *chaosSeed}
	if *only != "" {
		spec.Artifacts = strings.Split(*only, ",")
	}
	opts := report.Options{Jobs: *jobs, Metrics: coll, Workers: runner.BudgetFor(*jobs), Tracer: outs.Tracer, Spans: outs.Spans}
	prof, wanted, err := spec.Resolve(&opts)
	if err != nil {
		lg.Exitf(2, "%v", err)
	}
	if c := opts.Chaos; c != nil {
		lg.Statusf("chaos armed: seed %d rate %g (outputs are not paper artifacts)", c.Seed, c.Rate)
	}

	// Ctrl-C / SIGTERM cancels the sweep through the context: workers
	// stop claiming cells, completed cells are already checkpointed, and
	// the partial metrics snapshot is flushed before exiting 130.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	opts.Ctx = ctx

	prepared := core.NewPreparedCache()
	if *graphCache != "" {
		if err := os.MkdirAll(*graphCache, 0o777); err != nil {
			lg.Exitf(2, "-graph-cache: %v", err)
		}
		prepared = core.NewPreparedCacheDir(*graphCache)
	}
	defer prepared.Close()
	opts.Prepared = prepared
	if !lg.Quiet() {
		opts.Progress = lg.Statusf
	}
	if outs.HTTPAddr != "" {
		// The board feeds /progress; it forces progress accounting on
		// even under -q (the no-op line sink).
		opts.Board = board
	}
	if *resume && *ckPath == "" {
		lg.Exitf(2, "-resume requires -checkpoint")
	}
	var ck *core.Checkpoint
	if *ckPath != "" {
		ck, err = core.OpenCheckpoint(*ckPath, spec.Key(), *resume)
		if err != nil {
			lg.Exitf(1, "%v", err)
		}
		opts.Checkpoint = ck
		if *resume && ck.Len() > 0 {
			lg.Statusf("resuming from %s: %d completed cells restored", *ckPath, ck.Len())
		}
	}

	// interrupted is the Ctrl-C epilogue: completed cells are already on
	// disk in the checkpoint, the partial exports are flushed now, and the
	// process exits with the conventional 128+SIGINT status.
	interrupted := func(name string) {
		lg.Statusf("interrupted during %s", name)
		if err := ck.Close(); err != nil {
			lg.Statusf("checkpoint close: %v", err)
		}
		if err := outs.Flush(lg, coll, true); err != nil {
			lg.Errorf("%v", err)
		}
		if *ckPath != "" {
			lg.Statusf("%d completed cells checkpointed; rerun with -checkpoint %s -resume to continue", ck.Len(), *ckPath)
		}
		os.Exit(130)
	}

	// report.Sweep is the rendering path shared with dvmserved; the
	// observe hook adds this command's per-artifact status lines.
	if err := report.Sweep(prof, os.Stdout, opts, wanted, func(key string, render func() error) error {
		start := time.Now()
		lg.Statusf("== %s (profile %s)", key, prof.Name)
		if err := render(); err != nil {
			return err
		}
		lg.Statusf("== %s done in %v", key, time.Since(start).Round(time.Millisecond))
		return nil
	}); err != nil {
		if ctx.Err() != nil {
			interrupted(report.ArtifactKeyOf(err))
		}
		lg.Exitf(1, "%v", err)
	}

	if err := ck.Close(); err != nil {
		lg.Exitf(1, "checkpoint: %v", err)
	}
	if err := outs.Flush(lg, coll, false); err != nil {
		lg.Exitf(1, "%v", err)
	}
}
