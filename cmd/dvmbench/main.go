// Command dvmbench records the repository's performance trajectory: it
// regenerates every paper artifact at a profile (end-to-end wall per
// artifact) and runs a fixed set of micro-benchmarks (ns/op, allocs/op)
// through testing.Benchmark, then writes the measurements to a JSON file
// (BENCH_tiny.json at the repository root is the committed trajectory).
//
// Usage:
//
//	dvmbench [-profile tiny] -o BENCH_tiny.json            # measure, write
//	dvmbench [-profile tiny] -o BENCH_tiny.json -as-baseline
//	dvmbench [-profile tiny] -against BENCH_tiny.json      # CI regression gate
//	dvmbench -profile large -only fig8 -graph-cache /tmp/g -o BENCH_large.json
//
// Every artifact is measured for wall time AND peak resident set (the
// kernel's VmHWM watermark, reset per artifact via /proc/self/clear_refs
// where supported); the heaviest artifact's watermark is the sweep's
// peak_rss_bytes, gated by -against at the same 20% tolerance as the
// alloc counts. -only restricts the sweep to a comma-separated artifact
// subset and skips the micro-benchmarks (footprint runs); -graph-cache
// mmaps on-disk CSR graphs instead of holding them in the heap, and is
// recorded in the measurement so footprints gate like against like.
//
// The output file holds two sections: "baseline" (the numbers recorded
// before the PR-3 hot-path pass, frozen) and "current" (refreshed by -o).
// Writing with -o preserves an existing file's baseline section so the
// speedup ratio stays auditable; -as-baseline rewrites the baseline
// instead (used once per optimisation epoch). A "speedup" section is
// recomputed on every write as baseline/current.
//
// -against measures the working tree and compares it to the file's
// "current" section, the committed performance contract:
//
//   - allocs/op compare machine-independently: the gate fails when a
//     benchmark allocates more than max(1.2*committed, committed+2)
//     objects per op. The +2 grace keeps near-zero-allocation benchmarks
//     from failing on one incidental allocation; the 20% headroom keeps
//     the gate from tracking noise on alloc-heavy paths.
//   - ns/op compares only after normalizing both runs by their own
//     end-to-end artifact wall (ratio of ratios), so an absolutely slower
//     CI machine does not fail the gate, but a benchmark that regressed
//     relative to the rest of the suite by >20% does.
//
// The tolerances are deliberately loose: the gate exists to catch a
// hot path accidentally reverting to a slow path (2x regressions), not
// to police single-digit drift.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/dvm-sim/dvm/internal/addr"
	"github.com/dvm-sim/dvm/internal/core"
	"github.com/dvm-sim/dvm/internal/durable"
	"github.com/dvm-sim/dvm/internal/graph"
	"github.com/dvm-sim/dvm/internal/memsys"
	"github.com/dvm-sim/dvm/internal/obs"
	"github.com/dvm-sim/dvm/internal/report"
	"github.com/dvm-sim/dvm/internal/runner"
)

// Measurement is one recorded run of the suite.
type Measurement struct {
	// Label identifies the code state measured (e.g. a commit subject).
	Label string `json:"label,omitempty"`
	// GoVersion, NumCPU and GOMAXPROCS record the measuring environment;
	// Jobs is the resolved -j the artifact timings ran at. Together they
	// say how much parallelism a recorded wall could have benefited from,
	// which is what makes cross-machine comparisons of EndToEndSeconds
	// auditable.
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Jobs       int    `json:"jobs"`
	// GraphCache records whether the artifact sweep ran with the on-disk
	// mmap'd graph cache (-graph-cache); footprint numbers are only
	// comparable between runs with the same backing.
	GraphCache bool `json:"graph_cache,omitempty"`
	// ArtifactsSeconds is the wall per artifact at -j Jobs.
	ArtifactsSeconds map[string]float64 `json:"artifacts_seconds"`
	// ArtifactsPeakRSSBytes is the kernel peak-RSS watermark (VmHWM) per
	// artifact, reset via /proc/self/clear_refs before each one. On
	// kernels without watermark reset the values are the monotone
	// process-lifetime peak (over-reporting, never under).
	ArtifactsPeakRSSBytes map[string]uint64 `json:"artifacts_peak_rss_bytes,omitempty"`
	// PeakRSSBytes is the heaviest artifact's watermark — the sweep's
	// resident-footprint headline.
	PeakRSSBytes uint64 `json:"peak_rss_bytes,omitempty"`
	// HeapHighWaterBytes is runtime HeapSys after the artifact sweep:
	// the Go heap's high-water mark as obtained from the OS.
	HeapHighWaterBytes uint64 `json:"heap_high_water_bytes,omitempty"`
	// EndToEndSeconds is the wall of regenerating every artifact, the
	// headline "full dvmrepro regeneration" number.
	EndToEndSeconds float64 `json:"end_to_end_seconds"`
	// Benchmarks holds the micro-benchmark results by name.
	Benchmarks map[string]BenchResult `json:"benchmarks"`
}

// BenchResult is one micro-benchmark's outcome.
type BenchResult struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// P99WalkMemRefs is the p99 of the per-translation walk-memref
	// distribution of the benchmark's last run (run/* benchmarks only;
	// 0 for modes that walk nothing). Simulated-time data: recorded for
	// trend visibility, not gated — the gate ignores unknown fields.
	P99WalkMemRefs uint64 `json:"p99_walk_memrefs,omitempty"`
}

// File is the committed trajectory format.
type File struct {
	Schema  string `json:"schema"`
	Profile string `json:"profile"`
	// Baseline is frozen at the start of an optimisation epoch;
	// Current is refreshed by every -o run.
	Baseline *Measurement `json:"baseline,omitempty"`
	Current  *Measurement `json:"current,omitempty"`
	// Speedup is Baseline/Current, recomputed on write.
	Speedup *Speedup `json:"speedup,omitempty"`
}

// Speedup summarizes baseline/current ratios (>1 means faster now).
type Speedup struct {
	EndToEnd  float64            `json:"end_to_end"`
	Artifacts map[string]float64 `json:"artifacts"`
}

func main() {
	profileName := flag.String("profile", "tiny", "experiment profile to measure ("+strings.Join(core.ProfileNames(), "|")+")")
	out := flag.String("o", "", "write/refresh this trajectory file's current section")
	asBaseline := flag.Bool("as-baseline", false, "with -o: write the baseline section instead of current")
	against := flag.String("against", "", "measure and gate against this file's current section (CI)")
	jobs := flag.Int("j", 1, "worker processes for artifact timings (default 1: sequential, comparable across files)")
	label := flag.String("label", "", "label recorded with the measurement")
	only := flag.String("only", "", "comma-separated artifact subset to measure (skips the micro-benchmarks; for footprint-focused files like BENCH_large.json)")
	graphCache := flag.String("graph-cache", "", "directory for the on-disk CSR graph cache (mmap'd graphs; recorded in the measurement)")
	quiet := flag.Bool("q", false, "suppress progress output")
	httpAddr := flag.String("http", "", "serve the live observability surface (/metrics, /progress, /debug/pprof/) on this address")
	flag.Parse()

	lg := obs.NewLogger(os.Stderr, "dvmbench", *quiet)
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
	// Drain the -http listener on every return path so an in-flight
	// scrape finishes instead of seeing a connection reset. Exitf paths
	// bypass this deliberately: they are error aborts, not shutdowns.
	defer httpSrv.Shutdown(2 * time.Second)
	if (*out == "") == (*against == "") {
		lg.Exitf(2, "exactly one of -o or -against is required")
	}
	// The sweep is a report.Spec like dvmrepro's: Resolve validates the
	// profile and -only (unknown keys exit 2 naming the valid ones).
	spec := report.Spec{Profile: *profileName}
	if *only != "" {
		spec.Artifacts = strings.Split(*only, ",")
	}
	n := runner.DefaultJobs(*jobs)
	opts := report.Options{Jobs: n, Workers: runner.BudgetFor(n), Metrics: coll, Board: board}
	prof, wanted, err := spec.Resolve(&opts)
	if err != nil {
		lg.Exitf(2, "%v", err)
	}
	prepared := core.NewPreparedCache()
	if *graphCache != "" {
		if err := os.MkdirAll(*graphCache, 0o777); err != nil {
			lg.Exitf(2, "-graph-cache: %v", err)
		}
		prepared = core.NewPreparedCacheDir(*graphCache)
	}
	defer prepared.Close()
	opts.Prepared = prepared

	// Ctrl-C cancels the measurement sweep; nothing is written (a
	// partial trajectory would poison later comparisons), so the
	// committed file is only ever replaced atomically and completely.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	opts.Ctx = ctx

	m, err := measure(prof, *label, opts, wanted, lg)
	if m != nil {
		m.GraphCache = *graphCache != ""
	}
	if err != nil {
		if ctx.Err() != nil {
			lg.Statusf("interrupted; no file written")
			httpSrv.Shutdown(2 * time.Second) // os.Exit skips the deferred drain
			os.Exit(130)
		}
		lg.Exitf(1, "%v", err)
	}

	if *against != "" {
		committed, err := load(*against)
		if err != nil {
			lg.Exitf(1, "%v", err)
		}
		if committed.Current == nil {
			lg.Exitf(1, "%s has no current section to gate against", *against)
		}
		if errs := gate(committed.Current, m); len(errs) > 0 {
			for _, e := range errs {
				fmt.Fprintf(os.Stderr, "dvmbench: REGRESSION: %v\n", e)
			}
			lg.Exitf(1, "%d benchmark regression(s) against %s (see above; refresh with `go run ./cmd/dvmbench -profile %s -o %s` if intentional)",
				len(errs), *against, prof.Name, *against)
		}
		lg.Statusf("no regressions against %s (%d benchmarks, %d artifacts)", *against, len(m.Benchmarks), len(m.ArtifactsSeconds))
		return
	}

	f := &File{Schema: "dvm-bench/1", Profile: prof.Name}
	if prev, err := load(*out); err == nil {
		*f = *prev
	} else if !os.IsNotExist(err) {
		lg.Exitf(1, "%v", err)
	}
	if *asBaseline {
		f.Baseline = m
	} else {
		f.Current = m
	}
	f.Speedup = speedup(f.Baseline, f.Current)
	if err := write(*out, f); err != nil {
		lg.Exitf(1, "%v", err)
	}
	if f.Speedup != nil {
		lg.Statusf("end-to-end %s regeneration: baseline %.2fs -> current %.2fs (%.2fx)",
			prof.Name, f.Baseline.EndToEndSeconds, f.Current.EndToEndSeconds, f.Speedup.EndToEnd)
	}
	lg.Statusf("wrote %s", *out)
}

// measure runs the suite: the wanted artifacts through report.Sweep at
// opts.Jobs (default 1: stable, comparable across runs and against
// committed files), each timed and its peak RSS read in the observe
// hook, then the micro-benchmarks (always sequential). A non-nil wanted
// set skips the micro-benchmarks entirely (a footprint run, not a full
// trajectory).
func measure(prof core.Profile, label string, opts report.Options, wanted map[string]bool, lg *obs.Logger) (*Measurement, error) {
	m := &Measurement{
		Label:            label,
		GoVersion:        runtime.Version(),
		NumCPU:           runtime.NumCPU(),
		GOMAXPROCS:       runtime.GOMAXPROCS(0),
		Jobs:             opts.Jobs,
		ArtifactsSeconds: map[string]float64{},
		Benchmarks:       map[string]BenchResult{},
	}
	if !resetPeakRSS() {
		lg.Statusf("peak-RSS watermark reset unsupported; per-artifact RSS is the process-lifetime peak")
	}
	err := report.Sweep(prof, io.Discard, opts, wanted, func(key string, render func() error) error {
		resetPeakRSS()
		start := time.Now()
		if err := render(); err != nil {
			return err
		}
		wall := time.Since(start).Seconds()
		m.ArtifactsSeconds[key] = wall
		m.EndToEndSeconds += wall
		rss := peakRSSBytes()
		if rss > 0 {
			if m.ArtifactsPeakRSSBytes == nil {
				m.ArtifactsPeakRSSBytes = map[string]uint64{}
			}
			m.ArtifactsPeakRSSBytes[key] = rss
			if rss > m.PeakRSSBytes {
				m.PeakRSSBytes = rss
			}
		}
		lg.Statusf("artifact %s: %.2fs peak RSS %d MiB", key, wall, rss>>20)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("dvmbench: %w", err)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.HeapHighWaterBytes = ms.HeapSys
	if wanted != nil {
		return m, nil
	}
	for _, b := range microBenches(prof) {
		r := testing.Benchmark(b.fn)
		br := BenchResult{NsPerOp: float64(r.T.Nanoseconds()) / float64(r.N), AllocsPerOp: r.AllocsPerOp()}
		if b.p99 != nil {
			br.P99WalkMemRefs = b.p99()
		}
		m.Benchmarks[b.name] = br
		lg.Statusf("bench %s: %.0f ns/op %d allocs/op", b.name, br.NsPerOp, br.AllocsPerOp)
	}
	return m, nil
}

// microBench is one tracked micro-benchmark; p99, when non-nil, reports
// the p99 walk-memrefs of the benchmark's most recent run after fn has
// executed (recorded into the trajectory file, not gated).
type microBench struct {
	name string
	fn   func(b *testing.B)
	p99  func() uint64
}

// microBenches is the tracked micro-benchmark suite. Names are stable:
// the CI gate joins on them.
func microBenches(prof core.Profile) []microBench {
	cfg := prof.SystemConfig()
	var prep *core.Prepared
	prepare := func(b *testing.B) *core.Prepared {
		if prep == nil {
			d, err := graph.DatasetByName("Wiki")
			if err != nil {
				b.Fatal(err)
			}
			prep, err = core.Prepare(core.Workload{
				Algorithm: "PageRank", Dataset: d, Scale: prof.Scale,
				PageRankIters: prof.PageRankIters, Seed: 42,
			})
			if err != nil {
				b.Fatal(err)
			}
		}
		return prep
	}
	perMode := func(name string, mode core.Mode) microBench {
		var last core.RunResult
		return microBench{
			name: name,
			fn: func(b *testing.B) {
				p := prepare(b)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					r, err := p.Run(mode, cfg)
					if err != nil {
						b.Fatal(err)
					}
					last = r
				}
			},
			p99: func() uint64 { return p99WalkMemRefs(last) },
		}
	}
	return []microBench{
		perMode("run/conv4k", core.ModeConv4K),
		perMode("run/dvm-bm", core.ModeDVMBM),
		perMode("run/dvm-pe", core.ModeDVMPE),
		perMode("run/dvm-pe+", core.ModeDVMPEPlus),
		perMode("run/ideal", core.ModeIdeal),
		perMode("run/sparta", core.ModeSPARTA),
		perMode("run/vbi", core.ModeVBI),
		// fig8/sweep times a whole Figure 8 mode sweep on one prepared
		// workload, sequentially (nil Workers, one worker), so it is
		// comparable across machines.
		{name: "fig8/sweep", fn: func(b *testing.B) {
			p := prepare(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.RunModesCtx(context.Background(), core.AllModes, cfg, 1); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{name: "prepare", fn: func(b *testing.B) {
			d, err := graph.DatasetByName("Wiki")
			if err != nil {
				b.Fatal(err)
			}
			wl := core.Workload{
				Algorithm: "PageRank", Dataset: d, Scale: prof.Scale,
				PageRankIters: prof.PageRankIters, Seed: 42,
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Prepare(wl); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{name: "memsys/access", fn: func(b *testing.B) {
			ctl := memsys.MustNewController(memsys.Config{})
			b.ReportAllocs()
			b.ResetTimer()
			var now uint64
			for i := 0; i < b.N; i++ {
				now = ctl.Access(addr.PA(uint64(i)<<6), now)
			}
		}},
	}
}

// p99WalkMemRefs pulls the p99 of the mode's walk-memref distribution
// out of a run's metrics snapshot (0 when the mode walks nothing, e.g.
// Ideal).
func p99WalkMemRefs(r core.RunResult) uint64 {
	for name, h := range r.Metrics.Hists {
		if strings.HasSuffix(name, ".walk.memrefs") {
			return h.P99
		}
	}
	return 0
}

// gate compares a fresh measurement against the committed contract.
// See the package comment for the exact tolerances and why.
func gate(committed, fresh *Measurement) []error {
	var errs []error
	names := make([]string, 0, len(committed.Benchmarks))
	for name := range committed.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	// Footprint gate: the artifact sweep is deterministic at a profile,
	// so peak RSS compares across machines (unlike wall time); a >20%
	// growth in the heaviest artifact's resident set fails. Only applies
	// when both runs measured RSS with the same graph backing.
	if committed.PeakRSSBytes > 0 && fresh.PeakRSSBytes > 0 && committed.GraphCache == fresh.GraphCache {
		if limit := committed.PeakRSSBytes + committed.PeakRSSBytes/5; fresh.PeakRSSBytes > limit {
			errs = append(errs, fmt.Errorf("peak RSS: %d MiB, committed %d MiB (limit %d MiB)",
				fresh.PeakRSSBytes>>20, committed.PeakRSSBytes>>20, limit>>20))
		}
	}
	for _, name := range names {
		base := committed.Benchmarks[name]
		cur, ok := fresh.Benchmarks[name]
		if !ok {
			errs = append(errs, fmt.Errorf("%s: tracked benchmark missing from this run", name))
			continue
		}
		// Alloc gate: machine-independent.
		if limit := maxI(int64(float64(base.AllocsPerOp)*1.2), base.AllocsPerOp+2); cur.AllocsPerOp > limit {
			errs = append(errs, fmt.Errorf("%s: %d allocs/op, committed %d (limit %d)",
				name, cur.AllocsPerOp, base.AllocsPerOp, limit))
		}
		// Time gate: normalize each run's ns/op by its own end-to-end
		// wall so machine speed cancels; >20% relative regression fails.
		if committed.EndToEndSeconds > 0 && fresh.EndToEndSeconds > 0 && base.NsPerOp > 0 {
			rel := (cur.NsPerOp / fresh.EndToEndSeconds) / (base.NsPerOp / committed.EndToEndSeconds)
			if rel > 1.2 {
				errs = append(errs, fmt.Errorf("%s: %.0f ns/op is %.2fx the committed share of the end-to-end wall (limit 1.20x)",
					name, cur.NsPerOp, rel))
			}
		}
	}
	return errs
}

func maxI(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func speedup(base, cur *Measurement) *Speedup {
	if base == nil || cur == nil || cur.EndToEndSeconds == 0 {
		return nil
	}
	s := &Speedup{Artifacts: map[string]float64{}}
	s.EndToEnd = base.EndToEndSeconds / cur.EndToEndSeconds
	for k, b := range base.ArtifactsSeconds {
		if c := cur.ArtifactsSeconds[k]; c > 0 {
			s.Artifacts[k] = b / c
		}
	}
	return s
}

func load(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("dvmbench: parsing %s: %w", path, err)
	}
	return &f, nil
}

// write replaces the trajectory file through durable.WriteFile, so an
// interrupt mid-write can never leave a truncated JSON file behind for
// the CI gate to choke on.
func write(path string, f *File) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return durable.WriteFile(path, 0o644, func(out *os.File) error {
		_, err := out.Write(append(data, '\n'))
		return err
	})
}
