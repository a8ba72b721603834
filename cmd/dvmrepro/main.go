// Command dvmrepro regenerates the tables and figures of "Devirtualizing
// Memory in Heterogeneous Systems" (ASPLOS'18) from the simulation in this
// repository.
//
// Usage:
//
//	dvmrepro [-profile tiny|small|medium|large|paper] [-j N] [-modes paper|extended]
//	         [-only fig2,table1,table3,fig8,fig9,table4,fig10,table5,ablations,virt]
//	         [-checkpoint file [-resume]] [-shard k/n] [-graph-cache dir]
//	         [-chaos-rate p -chaos-seed N]
//	         [-metrics file] [-trace file] [-trace-mask comps]
//	         [-http addr] [-spans file] [-q]
//	dvmrepro -merge-shards out.ckpt shard0.ckpt shard1.ckpt ...
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
// tables byte-identical to an uninterrupted run.
//
// Distribution: -shard k/n runs only the experiment cells whose global
// index i satisfies i%n == k, writing them to a -checkpoint namespaced
// with the shard (tables are suppressed — a shard's rows are partial).
// N shard checkpoints merge with -merge-shards into one plain checkpoint;
// rendering it with -checkpoint merged -resume produces tables and
// -metrics byte-identical to a single-box run. -graph-cache dir builds
// each (dataset, scale, seed) graph once as an on-disk CSR file and
// mmaps it read-only, so a fleet of shards (or a second run) shares
// page-cache pages instead of regenerating and holding private copies.
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
// bounded by -trace-cap, filtered to the -trace-mask components; -spans
// writes the sweep's phase spans (prepare, page-table builds, cells,
// timing replay) as Chrome trace-event JSON loadable
// in ui.perfetto.dev; -http serves the live surface — net/http/pprof
// under /debug/pprof/, the merged metrics in Prometheus text exposition
// format at /metrics, and the sweep progress as JSON at /progress.
//
// The sweep's identity (profile, -only, -modes, chaos, -shard) is a
// report.Spec: it validates the flags and names the checkpoint
// namespace, exactly as it does for a dvmserved job.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
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
	shardSpec := flag.String("shard", "", "run only cells i with i%n == k, given as k/n (requires -checkpoint; tables are suppressed — merge and render with -merge-shards then -resume)")
	mergeOut := flag.String("merge-shards", "", "merge the shard checkpoint files given as arguments into this plain checkpoint, then exit")
	graphCache := flag.String("graph-cache", "", "directory for the on-disk CSR graph cache: each (dataset, scale, seed) graph is built once and mmap'd read-only thereafter")
	flag.Parse()

	lg := obs.NewLogger(os.Stderr, "dvmrepro", *quiet)

	// -merge-shards is a standalone mode: fold shard checkpoints into one
	// plain checkpoint and exit. Rendering happens in a second invocation
	// (-checkpoint merged -resume), which replays the merged cells.
	if *mergeOut != "" {
		srcs := flag.Args()
		if len(srcs) == 0 {
			lg.Exitf(2, "-merge-shards requires the shard checkpoint files as arguments")
		}
		base, cells, missing, err := core.MergeCheckpoints(*mergeOut, srcs)
		if err != nil {
			lg.Exitf(1, "%v", err)
		}
		for _, k := range missing {
			fmt.Fprintf(os.Stderr, "dvmrepro: warning: shard %d is missing; rendering with -resume will rerun its cells\n", k)
		}
		fmt.Fprintf(os.Stderr, "dvmrepro: merged %d cells from %d shard(s) into %s (profile %s)\n", cells, len(srcs), *mergeOut, base)
		fmt.Fprintf(os.Stderr, "dvmrepro: render with -checkpoint %s -resume plus the flags that produced profile %q\n", *mergeOut, base)
		return
	}

	coll := &obs.Collector{}
	board := &runner.ProgressBoard{}
	if err := outs.Start(lg, coll, board.Probe()); err != nil {
		lg.Exitf(2, "%v", err)
	}

	spec := report.Spec{Profile: *profileName, Modes: *modesName, ChaosRate: *chaosRate, ChaosSeed: *chaosSeed}
	if *only != "" {
		spec.Artifacts = strings.Split(*only, ",")
	}
	if *shardSpec != "" {
		k, n := 0, 0
		if _, err := fmt.Sscanf(*shardSpec, "%d/%d", &k, &n); err != nil ||
			fmt.Sprintf("%d/%d", k, n) != *shardSpec || n < 1 {
			lg.Exitf(2, "bad -shard %q (want k/n with 0 <= k < n)", *shardSpec)
		}
		if *ckPath == "" {
			lg.Exitf(2, "-shard requires -checkpoint (a shard's only durable output is its checkpoint)")
		}
		if outs.MetricsPath != "" {
			lg.Exitf(2, "-shard and -metrics are incompatible: merge the shard checkpoints and render with -resume to get the complete snapshot")
		}
		spec.Shard = report.Shard{Index: k, Count: n}
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

	out := io.Writer(os.Stdout)
	if spec.Shard.Count > 0 {
		// A shard's table rows are partial (unowned cells render as
		// zeros), so the rendered text is suppressed; the checkpoint is
		// the shard's durable output.
		out = io.Discard
		lg.Statusf("shard %d/%d: tables suppressed; completed cells go to %s", spec.Shard.Index, spec.Shard.Count, *ckPath)
	}
	// report.Sweep is the rendering path shared with dvmserved; the
	// observe hook adds this command's per-artifact status lines.
	if err := report.Sweep(prof, out, opts, wanted, func(key string, render func() error) error {
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
	if spec.Shard.Count > 0 {
		fmt.Fprintf(os.Stderr, "dvmrepro: shard %d/%d complete: %d cells in %s; combine with -merge-shards\n",
			spec.Shard.Index, spec.Shard.Count, ck.Len(), *ckPath)
	}
	if err := outs.Flush(lg, coll, false); err != nil {
		lg.Exitf(1, "%v", err)
	}
}
