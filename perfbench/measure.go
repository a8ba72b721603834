package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/dvm-sim/dvm/internal/obs"
)

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile of xs and whether at
// least minBeyond samples lie beyond it; a percentile without that
// support is never reported.
func quantile(xs []float64, q float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	return s[idx], len(s)-1-idx >= minBeyond
}

// median is the plain middle value (repeated set-ups and probe
// repetitions, where the sample count is fixed and small by design).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cpuSeconds is the process's user+sys CPU time so far (getrusage).
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// resetPeakRSS resets the kernel's VmHWM watermark to the current RSS
// (writing 5 to /proc/self/clear_refs), so the next peakRSSMiB reads
// the peak of the phase that follows. It reports whether the kernel
// supports the reset.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMiB reads VmHWM from /proc/self/status.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// hostSample is one reading of the host counters behind the
// environment record: aggregate CPU jiffies (with steal) and the
// 1-minute load average.
type hostSample struct {
	total, steal uint64
	load1        float64
}

func readHost() hostSample {
	var h hostSample
	if b, err := os.ReadFile("/proc/stat"); err == nil {
		line, _, _ := strings.Cut(string(b), "\n")
		// cpu user nice system idle iowait irq softirq steal [guest
		// guest_nice, already counted in user]
		if fields := strings.Fields(line); len(fields) > 8 {
			for _, f := range fields[1:9] {
				v, _ := strconv.ParseUint(f, 10, 64)
				h.total += v
			}
			h.steal, _ = strconv.ParseUint(fields[8], 10, 64)
		}
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if fields := strings.Fields(string(b)); len(fields) > 0 {
			h.load1, _ = strconv.ParseFloat(fields[0], 64)
		}
	}
	return h
}

// phase measures one stretch of the run: host wall time, process CPU
// time and the host's steal share and load over it.
type phase struct {
	start time.Time
	cpu0  float64
	host0 hostSample
}

func beginPhase() phase {
	return phase{start: time.Now(), cpu0: cpuSeconds(), host0: readHost()}
}

// phaseStats is a finished phase.
type phaseStats struct {
	wall, cpu    float64
	stealShare   float64
	load0, load1 float64
}

func (p phase) end() phaseStats {
	wall := time.Since(p.start).Seconds()
	cpu := cpuSeconds() - p.cpu0
	h := readHost()
	st := phaseStats{wall: wall, cpu: cpu, load0: p.host0.load1, load1: h.load1}
	if dt := h.total - p.host0.total; dt > 0 {
		st.stealShare = float64(h.steal-p.host0.steal) / float64(dt)
	}
	return st
}

// printEnv writes the environment record of a run: what the measured
// phase ran on and how contended the host was meanwhile, so a noisy
// host can be told apart from a slow program.
func printEnv(w io.Writer, label string, st phaseStats) {
	fmt.Fprintf(w, "env %s: nproc=%d GOMAXPROCS=%d go=%s steal=%.1f%% load1=%.2f->%.2f wall=%.3fs cpu=%.3fs\n",
		label, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(),
		100*st.stealShare, st.load0, st.load1, st.wall, st.cpu)
}

// span is one traced interval around a call the benchmark makes into
// a layer. Parent is the index of the enclosing span (-1 for a root);
// Lane is the Chrome-trace row it renders on.
type span struct {
	name, layer string
	parent      int
	lane        int
	start, end  time.Duration
}

// tracer holds spans in memory until the run writes them out. A nil
// tracer records nothing, which is how the untraced pass runs: every
// call site costs one nil check.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name, layer string, parent, lane int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, layer: layer, parent: parent, lane: lane, start: time.Since(t.t0)})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// sumByName totals the durations of spans whose name has the prefix.
func (t *tracer) sumByName(prefix string) float64 {
	var s time.Duration
	for _, sp := range t.spans {
		if strings.HasPrefix(sp.name, prefix) {
			s += sp.end - sp.start
		}
	}
	return s.Seconds()
}

// selfByLayer returns each layer's self time: its spans' durations
// minus the time their child spans cover.
func (t *tracer) selfByLayer() map[string]float64 {
	self := make([]time.Duration, len(t.spans))
	for i, sp := range t.spans {
		self[i] += sp.end - sp.start
		if sp.parent >= 0 {
			self[sp.parent] -= sp.end - sp.start
		}
	}
	out := map[string]float64{}
	for i, sp := range t.spans {
		out[sp.layer] += self[i].Seconds()
	}
	return out
}

// writeChrome exports the spans as Chrome trace-event JSON through the
// repository's own span recorder (the format -spans emits).
func (t *tracer) writeChrome(path string) error {
	rec := obs.NewSpanRecorder()
	for _, sp := range t.spans {
		rec.Add(obs.Span{Name: sp.layer + ":" + sp.name, Worker: sp.lane, Start: sp.start, End: sp.end})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
