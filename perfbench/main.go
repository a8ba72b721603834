// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload through the public Go entry points (core, report,
// shbench, serve), checks every output, and prints the end-to-end
// metrics by name and unit, ending with one JSON line:
//
//	{"correct": true, "attempted": 105, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload sim-fig8 --seed 42 --seconds 25 --trace 0
//
// With --trace 1 the run measures the workload twice, untraced and then
// traced (spans held in memory around every call into a layer), checks
// that the exact simulated counts agree, runs the per-layer probes and
// prints the per-layer metrics instead of the end-to-end ones. The spans
// are written at exit as Chrome trace-event JSON next to a self-time
// table per layer. README.md in this directory records why each
// workload exists and what each metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
)

// setupReps is how many times a run sets its workload up; setup_s is
// the median, and only the last set-up is measured.
const setupReps = 3

// metric is one reported number.
type metric struct {
	name  string
	unit  string
	value float64
}

// count is one exact simulated count; the traced and untraced passes
// of a run must agree on every one.
type count struct {
	name  string
	value string
}

// pass is the outcome of one measured phase.
type pass struct {
	attempted, failed int
	problems          []string
	// work is the workload's unit of work done (see work_per_s).
	work float64
	// jobs holds per-job latencies in seconds (job_p50_s/job_p90_s).
	jobs   []float64
	counts []count
	// layers are the workload's own per-layer metrics, derived from
	// the tracer (traced pass only).
	layers []metric
	// text is printed after the metrics (per-layer detail lines).
	text []string
}

func (p *pass) fail(format string, args ...any) {
	p.failed++
	p.problems = append(p.problems, fmt.Sprintf(format, args...))
}

// bench is one workload's implementation.
type bench interface {
	// setup builds the workload's state; it is not part of the
	// measured phase.
	setup() error
	// measure runs the measured phase on the state setup built.
	measure(tr *tracer) pass
	// close releases the state, so setup can build it afresh.
	close()
}

// workload names one benchmark workload.
type workload struct {
	name string
	// hasSetup is false for a workload whose measured phase starts
	// from nothing (it then reports no setup_s).
	hasSetup bool
	new      func(env runEnv) bench
}

// runEnv is what a workload is given: its seed, the expected outputs,
// and a directory inside the checkout for any files it writes.
type runEnv struct {
	seed    int64
	golden  golden
	workDir string
}

var workloads = []workload{
	{name: "sim-fig8", hasSetup: true, new: newSimFig8},
	{name: "alloc-table4", new: newAllocTable4},
	{name: "serve-mix", hasSetup: true, new: newServeMix},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command; it returns the exit code: 0 when every
// output was correct, 1 on any failed operation, 2 on bad usage.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: sim-fig8, alloc-table4 or serve-mix")
	seed := fs.Int64("seed", 42, "input seed; 42 reproduces testdata/golden_tiny.txt exactly")
	seconds := fs.Int("seconds", 20, "nominal length of the measured phase; each workload does a fixed amount of work sized to about this long")
	trace := fs.Int("trace", 0, "1: measure untraced and traced, print per-layer metrics")
	goldenPath := fs.String("golden", filepath.Join("testdata", "golden_tiny.txt"), "expected output to check against")
	outDir := fs.String("out", filepath.Join(".bench_build", "out"), "directory for traces and scratch state")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload sim-fig8|alloc-table4|serve-mix, --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	g, err := loadGolden(*goldenPath)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := os.MkdirAll(*outDir, 0o777); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	workDir, err := os.MkdirTemp(*outDir, "work-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(workDir)

	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%d trace=%d\n", wl.name, *seed, *seconds, *trace)
	env := runEnv{seed: *seed, golden: g, workDir: workDir}
	b := wl.new(env)
	defer b.close()
	res := measureWorkload(*wl, b, env, *trace == 1, stdout)
	if *trace == 1 && res.tracer != nil {
		base := filepath.Join(*outDir, fmt.Sprintf("%s-seed%d", wl.name, *seed))
		err := res.tracer.writeChrome(base + ".trace.json")
		if err == nil {
			err = os.WriteFile(base+".layers.txt", []byte(res.layerTable), 0o644)
		}
		if err != nil {
			res.fatal(fmt.Errorf("writing trace: %w", err))
		} else {
			fmt.Fprintf(stdout, "spans: %d written to %s.trace.json, self time to %s.layers.txt\n", len(res.tracer.spans), base, base)
		}
	}
	return res.print(stdout, stderr)
}

// result is a finished run.
type result struct {
	attempted, failed int
	problems          []string
	metrics           []metric
	// tracer and layerTable (tracing overhead and self time per layer)
	// come from a traced run.
	tracer     *tracer
	layerTable string
}

func (r *result) add(p pass) {
	r.attempted += p.attempted
	r.failed += p.failed
	r.problems = append(r.problems, p.problems...)
}

// fatal records an error that stopped the run: every operation it
// would have attempted counts as failed.
func (r *result) fatal(err error) {
	if r.attempted == 0 {
		r.attempted = 1
	}
	r.failed = r.attempted
	r.problems = append(r.problems, err.Error())
}

// measureWorkload sets the workload up setupReps times, measures it
// untraced, and (traced runs) measures it again traced and runs the
// per-layer probes.
func measureWorkload(wl workload, b bench, env runEnv, traced bool, w io.Writer) *result {
	res := &result{}
	reps := 1
	if wl.hasSetup {
		reps = setupReps
	}
	var setupCPU, setupWall []float64
	for i := 0; i < reps; i++ {
		// Each set-up and the measured phase start from a collected heap
		// with free memory returned to the kernel, so garbage left by an
		// earlier set-up is not collected at a random point inside them
		// and the resident set starts from the live heap.
		b.close()
		debug.FreeOSMemory()
		ph := beginPhase()
		if err := b.setup(); err != nil {
			res.fatal(fmt.Errorf("set-up: %w", err))
			return res
		}
		st := ph.end()
		setupCPU = append(setupCPU, st.cpu)
		setupWall = append(setupWall, st.wall)
	}
	debug.FreeOSMemory()
	if !resetPeakRSS() {
		fmt.Fprintln(w, "note: VmHWM reset unsupported; peak_rss_mib includes set-up")
	}
	ph := beginPhase()
	p := b.measure(nil)
	st := ph.end()
	rss := peakRSSMiB()
	res.add(p)
	printEnv(w, "untraced", st)
	printCounts(w, p.counts)

	if !traced {
		// The gated metrics are CPU time, memory and work per CPU
		// second: host steal on a shared machine moved every wall-clock
		// figure by 20-50% between runs of the same code, so wall time,
		// work per wall second and job latency are printed beside them
		// but not gated (README.md has the figures).
		res.metrics = append(res.metrics, metric{"cpu_s", "s", st.cpu})
		if wl.hasSetup {
			fmt.Fprintf(w, "set-up samples: cpu %s s, wall %s s\n", fmtFloats(setupCPU), fmtFloats(setupWall))
			res.metrics = append(res.metrics, metric{"setup_s", "s", median(setupCPU)})
			printUngated(w, "setup_wall_s", median(setupWall), "s", "")
		}
		res.metrics = append(res.metrics,
			metric{"peak_rss_mib", "MiB", rss},
			metric{"work_per_cpu_s", "1/s", p.work / st.cpu})
		printUngated(w, "wall_s", st.wall, "s", "")
		printUngated(w, "work_per_s", p.work/st.wall, "1/s", "")
		for _, q := range []float64{0.5, 0.9} {
			name := fmt.Sprintf("job_p%.0f_s", 100*q)
			if v, ok := quantile(p.jobs, q); ok {
				printUngated(w, name, v, "s", fmt.Sprintf("n=%d, ", len(p.jobs)))
			} else {
				fmt.Fprintf(w, "%-34s not reported (n=%d, fewer than %d beyond it)\n", name, len(p.jobs), minBeyond)
			}
		}
		return res
	}

	b.close()
	debug.FreeOSMemory()
	if err := b.setup(); err != nil {
		res.fatal(fmt.Errorf("traced set-up: %w", err))
		return res
	}
	debug.FreeOSMemory()
	tr := newTracer()
	ph = beginPhase()
	tp := b.measure(tr)
	tst := ph.end()
	res.add(tp)
	res.tracer = tr
	printEnv(w, "traced", tst)
	if a, b := fmtCounts(p.counts), fmtCounts(tp.counts); a != b {
		res.attempted++
		res.failed++
		res.problems = append(res.problems, "exact counts differ between the untraced and traced passes:\n"+a+"--- traced:\n"+b)
	}
	res.metrics = append(res.metrics,
		metric{"trace.wall_s", "s", tst.wall},
		metric{"trace.overhead_s", "s", tst.wall - st.wall})
	res.layerTable = fmt.Sprintf("tracing overhead: %+.3f s (traced %.3f s, untraced %.3f s)\n", tst.wall-st.wall, tst.wall, st.wall) +
		selfTimeTable(tr, tst.wall)
	fmt.Fprint(w, res.layerTable)
	pp := runProbes(env)
	res.add(pp)
	res.metrics = append(res.metrics, pp.layers...)
	for _, l := range tp.layers {
		fmt.Fprintf(w, "layer %-34s %14.6f %s\n", l.name, l.value, l.unit)
	}
	for _, t := range tp.text {
		fmt.Fprintln(w, t)
	}
	return res
}

// printUngated prints a wall-clock figure reported beside the gated
// metrics.
func printUngated(w io.Writer, name string, v float64, unit, note string) {
	fmt.Fprintf(w, "%-34s %14.6f %s (%snot gated)\n", name, v, unit, note)
}

func printCounts(w io.Writer, cs []count) {
	if len(cs) > 0 {
		fmt.Fprint(w, "exact counts:\n"+fmtCounts(cs))
	}
}

func fmtCounts(cs []count) string {
	var b strings.Builder
	for _, c := range cs {
		fmt.Fprintf(&b, "  %-26s %s\n", c.name, c.value)
	}
	return b.String()
}

func fmtFloats(xs []float64) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = fmt.Sprintf("%.4f", x)
	}
	return strings.Join(s, " ")
}

// selfTimeTable renders the per-layer self-time table of the traced
// phase.
func selfTimeTable(tr *tracer, wall float64) string {
	var b strings.Builder
	self := tr.selfByLayer()
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return self[layers[i]] > self[layers[j]] })
	fmt.Fprintf(&b, "self time per layer (traced phase, %d spans):\n", len(tr.spans))
	for _, l := range layers {
		fmt.Fprintf(&b, "  %-12s %10.4f s  %5.1f%%\n", l, self[l], 100*self[l]/wall)
	}
	return b.String()
}

// print writes the metrics and the closing JSON line and returns the
// exit code.
func (r *result) print(stdout, stderr io.Writer) int {
	for _, m := range r.metrics {
		fmt.Fprintf(stdout, "%-34s %14.6f %s\n", m.name, m.value, m.unit)
	}
	for i, p := range r.problems {
		if i == 10 {
			fmt.Fprintf(stderr, "perfbench: ... and %d more failures\n", len(r.problems)-10)
			break
		}
		fmt.Fprintf(stderr, "perfbench: FAIL: %s\n", p)
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]val{}}
	for _, m := range r.metrics {
		out.Metrics[m.name] = val{m.value, m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if r.failed > 0 {
		return 1
	}
	return 0
}
